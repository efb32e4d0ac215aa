"""Ops accounting of a run's repetitions."""

import run


def rep(digest="d" * 64, traced=False, failed_ops=0, ops=1, wall=1.0, **extra):
    doc = {
        "ok": True,
        "traced": traced,
        "ops": ops,
        "failed_ops": failed_ops,
        "problems": ["check failed"] * failed_ops,
        "digest": digest,
        "wall_s": wall,
        "setup_s": 0.5,
        "peak_rss_mb": 100.0,
        "decision_us": 200.0,
        "decision_samples": 10,
        "availability": 0.99,
    }
    doc.update(extra)
    return doc


def test_clean_repetitions_fail_nothing():
    attempted, failed, problems, metrics = run.summarize(
        "closed-loop", [rep(wall=1.0), rep(wall=3.0), rep(wall=2.0)], trace=False
    )
    assert (attempted, failed, problems) == (3, 0, [])
    assert metrics["wall_s"] == {"value": 2.0, "unit": "s"}
    assert set(metrics) == {name for name, _ in run.END_TO_END}


def test_a_corrupted_result_digest_is_a_failed_op():
    corrupted = rep(digest="0" + "d" * 63, wall=9.0)
    attempted, failed, problems, metrics = run.summarize(
        "closed-loop", [rep(wall=1.0), corrupted, rep(wall=2.0)], trace=False
    )
    assert (attempted, failed) == (3, 1)
    assert "differs" in problems[0]
    # The repetition that disagrees supplies no metrics.
    assert metrics["wall_s"]["value"] == 1.5


def test_a_failed_fleet_repetition_fails_every_shard():
    crashed = {"ok": False, "traced": False, "error": "RuntimeError('boom')"}
    checked = rep(ops=4, failed_ops=1)
    attempted, failed, problems, _ = run.summarize(
        "fleet-campaign", [rep(ops=4), crashed, checked], trace=False
    )
    assert (attempted, failed) == (12, 4 + 1)
    assert any("boom" in p for p in problems)


def test_traced_metrics_need_both_kinds_of_repetition():
    layers = {name: 1.0 for name, _ in run.LAYER_METRICS}
    _, _, _, only_traced = run.summarize(
        "closed-loop", [rep(traced=True, layers=layers)], trace=True
    )
    assert only_traced is None
    _, failed, _, metrics = run.summarize(
        "closed-loop",
        [rep(wall=2.0), rep(traced=True, wall=2.2, layers=layers)],
        trace=True,
    )
    assert failed == 0
    assert abs(metrics["trace.overhead_share"]["value"] - 0.1) < 1e-12
    assert set(metrics) == {name for name, _ in run.LAYER_METRICS}
