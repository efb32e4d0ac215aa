"""Span arithmetic: self time and per-layer attribution."""

from pytest import approx

import tracer


def span(sid, parent, name, start, end, info=None):
    return (sid, parent, name, start, end, info)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_span():
    spans = [
        span(1, None, "workload", 0, 100),
        span(2, 1, "a", 10, 40),
        span(3, 1, "b", 30, 60),  # overlaps a: 30..40 counted once
        span(4, 1, "c", 90, 120),  # runs past its parent: clipped at 100
        span(5, 2, "a.child", 15, 20),  # grandchild: only a's business
        span(6, 1, "d", 50, 55),  # inside b's interval
    ]
    self_ns = tracer.self_times(spans)
    assert self_ns[1] == 100 - (60 - 10) - (100 - 90)
    assert self_ns[2] == 30 - 5
    assert self_ns[3] == 30
    assert self_ns[4] == 30
    assert self_ns[5] == 5
    assert self_ns[6] == 5


def test_parallel_worker_spans_leave_only_uncovered_time_to_the_parent():
    # Two workers' shards run side by side under the parent's fleet.run.
    spans = [
        span(1, None, "workload", 0, 1000),
        span(2, 1, "fleet.run", 0, 1000, {"workers": 2, "cpu": 0.0}),
        span(3, 2, "fleet.prewarm", 0, 200, {"trained": 1, "cpu": 0.0}),
        span((7 << 32) | 1, 2, "fleet.shard", 200, 700),
        span((8 << 32) | 1, 2, "fleet.shard", 250, 900),
    ]
    assert tracer.self_times(spans)[2] == 1000 - 900
    metrics = tracer.analyze(spans, {}, root_id=1, wall_s=1000e-9)
    assert metrics["fleet.shards"] == 2
    assert metrics["fleet.prewarm_s"] == approx(200e-9)
    assert metrics["fleet.shard_wall_s"] == approx(1150e-9)
    assert metrics["fleet.parallel_efficiency"] == approx(1150 / (2 * 800))
    assert metrics["trace.unattributed_s"] == 0.0


def test_panel_members_and_surcharge_are_attributed_from_the_tree():
    panel = {"cls": "NoisyOrArbitrator", "obj": 1, "rows": 0,
             "members": {"10": "ubf", "20": "hsmm", "30": "rate"}}
    spans = [
        span(1, None, "workload", 0, 1000),
        span(2, 1, "prediction.fit", 0, 600, panel),
        span(3, 2, "prediction.fit", 0, 100, {"cls": "UBFPredictor", "obj": 10}),
        span(4, 3, "prediction.fit", 5, 95, {"cls": "UBFPredictor", "obj": 10}),
        span(5, 3, "prediction.ubf.kernel", 10, 20),
        span(6, 2, "prediction.fit", 100, 300, {"cls": "HSMMPredictor", "obj": 20}),
        span(7, 6, "markov.hsmm.fit", 110, 290),
        span(8, 7, "markov.hsmm.fit", 120, 200),  # a restart inside the fit
        span(9, 2, "prediction.score", 300, 550,
             {"cls": "HSMMPredictor", "obj": 20, "rows": 5}),
        span(10, 9, "markov.hsmm.loglik", 310, 540,
             {"sequences": 10, "symbols": 200, "repeats": 4}),
        span(11, 1, "prediction.score", 600, 900, dict(panel, rows=7)),
        span(12, 11, "prediction.score", 600, 700,
             {"cls": "ErrorRatePredictor", "obj": 30, "rows": 7}),
        span(13, 1, "prediction.calibrate", 900, 950, dict(panel)),
    ]
    m = tracer.analyze(spans, {}, root_id=1, wall_s=1000e-9)
    assert m["prediction.fits"] == 1
    assert m["prediction.fit_s"] == approx(600e-9)
    assert m["prediction.rows_scored"] == 7
    assert m["prediction.us_per_row"] == approx(300e-9 * 1e6 / 7)
    assert m["prediction.calibrate_s"] == approx(50e-9)
    assert m["prediction.ubf.fit_s"] == approx(100e-9)
    assert m["prediction.ubf.kernel_evals"] == 1
    assert m["prediction.member.ubf.fit_s"] == approx(100e-9)
    assert m["prediction.member.hsmm.fit_s"] == approx(200e-9)
    assert m["prediction.member.hsmm.score_s"] == approx(250e-9)
    assert m["prediction.member.rate.score_s"] == approx(100e-9)
    # Panel fit 600 - members 550, panel score 300 - member 100.
    assert m["prediction.arbitration.surcharge_s"] == approx(250e-9)
    assert m["markov.hsmm.em_fits"] == 1
    assert m["markov.hsmm.em_s"] == approx(180e-9)
    assert m["markov.hsmm.repeat_share"] == 0.4
    assert m["markov.hsmm.us_per_symbol"] == approx(230e-9 * 1e6 / 200)
    assert m["trace.unattributed_s"] == approx(50e-9)


def test_mea_retries_are_repeated_step_calls_within_one_cycle():
    spans = [
        span(1, None, "workload", 0, 100),
        span(2, 1, "core.mea.step", 0, 40, {"warning": True, "action": True}),
        span(3, 2, "core.mea.monitor", 0, 5),
        span(4, 2, "core.mea.evaluate", 5, 10),
        span(5, 2, "core.mea.evaluate", 10, 15),
        span(6, 2, "core.mea.act", 15, 30),
        span(7, 1, "core.mea.step", 50, 60, {"warning": False, "action": False}),
        span(8, 7, "core.mea.monitor", 50, 55),
    ]
    m = tracer.analyze(spans, {}, root_id=1, wall_s=100e-9)
    assert m["resilience.retries"] == 1
    assert m["core.mea.cycles"] == 2
    assert m["core.mea.warnings"] == 1
    assert m["core.mea.acted_share"] == 1.0
    assert m["core.mea.self_s"] == approx((40 - 30 + 10 - 5) * 1e-9)
    assert m["core.mea.cycle_p50_us"] == approx((40 + 10) / 2 * 1e-3)


def test_every_layer_metric_is_computed_or_filled_by_the_launcher():
    m = tracer.analyze([span(1, None, "workload", 0, 10)], {}, root_id=1, wall_s=1e-8)
    filled_elsewhere = {"setup.import_s", "trace.overhead_share"}
    assert set(m) | filled_elsewhere == {name for name, _ in tracer.LAYER_METRICS}
