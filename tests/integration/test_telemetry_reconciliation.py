"""Acceptance: the telemetry trace reconciles with the controller's own
bookkeeping, and the rolling quality gauges match the post-hoc Table 1
outcome matrix on the same run."""

import numpy as np
import pytest

from repro.core.controller import PFMController
from repro.simulator import Engine, RandomStreams
from repro.telecom import SCPConfig, SCPSystem
from repro.telemetry import TelemetryHub, export_jsonl, read_jsonl
from repro.telemetry import events as tel_events


class AlternatingPredictor:
    """Deterministic stand-in: warns on every third evaluation.

    The mix of warning and non-warning cycles exercises all four
    Table 1 outcomes without depending on the faultload's gauges.
    """

    threshold = 0.5

    def __init__(self) -> None:
        self.calls = 0

    def score_samples(self, x):
        self.calls += 1
        value = 1.0 if self.calls % 3 == 0 else 0.0
        return np.full(len(np.atleast_2d(x)), value)


@pytest.fixture(scope="module")
def instrumented_run():
    engine = Engine()
    system = SCPSystem(
        engine, RandomStreams(5), SCPConfig(enable_aging=True, n_containers=3)
    )
    predictor = AlternatingPredictor()
    hub = TelemetryHub()
    controller = PFMController(
        system=system,
        predictor=predictor,
        variables=["swap_activity", "cpu_utilization"],
        lead_time=300.0,
        cooldown=120.0,
        telemetry=hub,
        rolling_window=None,  # unbounded: counts must equal the matrix
    )
    system.start()
    controller.start()
    engine.run(until=6 * 3_600.0)
    controller.finalize_telemetry()
    return system, controller, hub


class TestTraceReconciliation:
    def test_cycle_spans_match_mea_history(self, instrumented_run, tmp_path):
        _, controller, hub = instrumented_run
        trace = tmp_path / "trace.jsonl"
        export_jsonl(hub, trace)
        rows = read_jsonl(trace)
        cycles = [
            r for r in rows if r["event"] == "span" and r["name"] == "mea.cycle"
        ]
        assert len(controller.mea.history) > 0
        assert len(cycles) == len(controller.mea.history)
        assert (
            hub.registry.counter("mea_cycles_total").value
            == len(controller.mea.history)
        )

    def test_warning_episode_events_match_episode_log(
        self, instrumented_run, tmp_path
    ):
        _, controller, hub = instrumented_run
        trace = tmp_path / "trace.jsonl"
        export_jsonl(hub, trace)
        rows = read_jsonl(trace)
        episodes = [
            r for r in rows if r["event"] == tel_events.WARNING_EPISODE
        ]
        assert len(controller.warnings) > 0
        assert len(episodes) == len(controller.warnings)
        # Events carry the same (time, action) stream as the episode log.
        assert [(r["t"], r["action"]) for r in episodes] == [
            (e.time, e.action) for e in controller.warnings
        ]

    def test_warning_counters_split_acted_vs_suppressed(self, instrumented_run):
        _, controller, hub = instrumented_run
        acted = sum(1 for e in controller.warnings if e.action)
        idle = sum(1 for e in controller.warnings if not e.action)
        reg = hub.registry
        assert (
            reg.counter("pfm_warning_episodes_total", acted="yes").value == acted
        )
        assert (
            reg.counter("pfm_warning_episodes_total", acted="no").value == idle
        )

    def test_trace_is_ordered_by_simulated_time(self, instrumented_run, tmp_path):
        _, _, hub = instrumented_run
        trace = tmp_path / "trace.jsonl"
        export_jsonl(hub, trace)
        times = [row["t"] for row in read_jsonl(trace)]
        assert times == sorted(times)


class TestRollingMatchesOutcomeMatrix:
    def test_counts_equal_table1_matrix(self, instrumented_run):
        _, controller, _ = instrumented_run
        matrix = controller.outcome_matrix()
        assert controller.quality.pending == 0  # finalize flushed everything
        for outcome in ("TP", "FP", "TN", "FN"):
            assert controller.quality.counts[outcome] == (
                matrix[outcome]["count"]
            ), outcome

    def test_gauges_mirror_the_final_counts(self, instrumented_run):
        _, controller, hub = instrumented_run
        counts = controller.quality.counts
        denom = counts["TP"] + counts["FP"]
        expected_precision = counts["TP"] / denom if denom else 0.0
        assert hub.registry.gauge("pfm_online_precision").value == (
            pytest.approx(expected_precision)
        )
        resolved = sum(
            m.value
            for m in hub.registry.families()[
                "pfm_predictions_resolved_total"
            ]
        )
        assert resolved == len(controller.evaluations)

    def test_run_end_event_carries_final_counts(self, instrumented_run):
        _, controller, hub = instrumented_run
        run_end = [e for e in hub.events if e.name == tel_events.RUN_END]
        assert len(run_end) == 1
        assert run_end[0].fields["cycles"] == len(controller.mea.history)
        assert run_end[0].fields["TP"] == controller.quality.counts["TP"]
