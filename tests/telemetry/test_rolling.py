"""Rolling online quality: delayed resolution, windowing, gauge mirror."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.telemetry import RollingQualityTracker, TelemetryHub
from repro.telemetry.rolling import table1_outcome


class TestResolution:
    def test_predictions_resolve_only_after_horizon(self):
        tracker = RollingQualityTracker(horizon=100.0)
        tracker.record(0.0, warning=True)
        tracker.record(50.0, warning=False)
        # At t=90 neither truth window has closed.
        assert tracker.resolve(90.0, [120.0]) == 0
        assert tracker.pending == 2
        # At t=100 the first prediction's window [0, 100] is closed, and
        # the failure at 120 falls outside it -> FP.
        assert tracker.resolve(100.0, [120.0]) == 1
        assert tracker.counts["FP"] == 1
        # The second window [50, 150] contains 120 but no warning -> FN.
        tracker.flush([120.0])
        assert tracker.counts["FN"] == 1
        assert tracker.pending == 0

    def test_outcome_classification_matches_table1_semantics(self):
        tracker = RollingQualityTracker(horizon=10.0)
        failures = [105.0]
        cases = [
            (100.0, True, "TP"),   # failure at 105 in [100, 110]
            (96.0, True, "TP"),    # boundary: 105 <= 96 + 10 -> hit
            (80.0, True, "FP"),    # window [80, 90] misses it
            (100.0, False, "FN"),
            (80.0, False, "TN"),
        ]
        for time, warning, _ in cases:
            tracker.record(time, warning)
        tracker.flush(failures)
        assert tracker.counts == {"TP": 2, "FP": 1, "TN": 1, "FN": 1}

    def test_metrics_definitions(self):
        tracker = RollingQualityTracker(horizon=10.0)
        tracker.counts.update({"TP": 6, "FP": 2, "TN": 10, "FN": 2})
        assert tracker.precision == 6 / 8
        assert tracker.recall == 6 / 8
        assert tracker.false_positive_rate == 2 / 12

    def test_empty_denominators_yield_zero(self):
        tracker = RollingQualityTracker(horizon=10.0)
        assert tracker.precision == 0.0
        assert tracker.recall == 0.0
        assert tracker.false_positive_rate == 0.0


class TestWindowing:
    def test_old_outcomes_evicted(self):
        tracker = RollingQualityTracker(horizon=1.0, window=3)
        # Three FPs, then three TNs: the window must forget the FPs.
        for i in range(3):
            tracker.record(float(i), warning=True)
        for i in range(3, 6):
            tracker.record(float(i), warning=False)
        tracker.flush([])
        assert tracker.counts == {"TP": 0, "FP": 0, "TN": 3, "FN": 0}
        assert tracker.total_resolved == 6

    def test_unbounded_window_keeps_everything(self):
        tracker = RollingQualityTracker(horizon=1.0, window=None)
        for i in range(500):
            tracker.record(float(i), warning=False)
        tracker.flush([])
        assert tracker.counts["TN"] == 500


class TestTelemetryMirror:
    def test_gauges_and_counters_follow_resolutions(self):
        hub = TelemetryHub()
        tracker = RollingQualityTracker(horizon=10.0, telemetry=hub)
        tracker.record(0.0, warning=True)
        tracker.record(1.0, warning=False)
        tracker.flush([5.0])  # TP + FN
        assert hub.registry.counter(
            "pfm_predictions_resolved_total", outcome="TP"
        ).value == 1
        assert hub.registry.gauge("pfm_online_recall").value == 0.5
        assert hub.registry.gauge("pfm_online_window_size").value == 2.0

    def test_summary_is_json_ready(self):
        tracker = RollingQualityTracker(horizon=10.0)
        tracker.record(0.0, warning=True)
        tracker.flush([5.0])
        summary = tracker.summary()
        assert summary["counts"]["TP"] == 1
        assert summary["resolved"] == 1
        assert summary["pending"] == 0


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            RollingQualityTracker(horizon=0.0)
        with pytest.raises(ConfigurationError):
            RollingQualityTracker(horizon=1.0, window=0)


@settings(max_examples=200, deadline=None)
@given(
    failures=st.lists(st.floats(0.0, 1_000.0), max_size=8).map(sorted),
    time=st.floats(0.0, 1_000.0),
    warning=st.booleans(),
    horizon=st.floats(0.5, 600.0),
)
@example(failures=[100.0], time=100.0, warning=True, horizon=10.0)
@example(failures=[110.0], time=100.0, warning=False, horizon=10.0)
@example(failures=[99.0, 111.0], time=100.0, warning=True, horizon=10.0)
def test_table1_outcome_matches_the_mask_definition(
    failures, time, warning, horizon
):
    """The bisect decision equals the numpy mask the controller's
    ``outcome_matrix()`` used before both shared one function."""
    times = np.asarray(failures)
    imminent = bool(
        times.size and np.any((times >= time) & (times <= time + horizon))
    )
    if warning:
        expected = "TP" if imminent else "FP"
    else:
        expected = "FN" if imminent else "TN"
    assert table1_outcome(failures, time, warning, horizon) == expected
