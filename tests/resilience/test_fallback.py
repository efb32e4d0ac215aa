import math

import numpy as np
import pytest

from repro.resilience import FallbackPredictor


class StubPredictor:
    """Scores the first feature; optionally raises or returns NaN."""

    def __init__(self, threshold=0.5, offset=0.0):
        self.threshold = threshold
        self.offset = offset
        self.fail = False
        self.return_nan = False
        self.calls = 0
        self.simulated_latency = 0.0

    def score_samples(self, x):
        self.calls += 1
        if self.fail:
            raise RuntimeError("predictor fault")
        if self.return_nan:
            return np.full(np.atleast_2d(x).shape[0], np.nan)
        return np.atleast_2d(x)[:, 0] + self.offset


@pytest.fixture()
def clock():
    state = {"now": 0.0}

    def read():
        return state["now"]

    read.state = state
    return read


def make_pair(clock, secondary=True, **kwargs):
    primary = StubPredictor(threshold=0.5)
    fallback = StubPredictor(threshold=10.0, offset=9.6) if secondary else None
    return (
        primary,
        fallback,
        FallbackPredictor(
            primary=primary,
            secondary=fallback,
            clock=clock,
            failure_threshold=2,
            cooldown=100.0,
            **kwargs,
        ),
    )


class TestHealthyPrimary:
    def test_primary_scores_and_warns_on_its_threshold(self, clock):
        _, _, scoring = make_pair(clock)
        result = scoring.score(np.array([0.7, 0.0]))
        assert result.source == "primary"
        assert result.score == pytest.approx(0.7)
        assert result.warning

    def test_below_threshold_no_warning(self, clock):
        _, _, scoring = make_pair(clock)
        assert not scoring.score(np.array([0.2, 0.0])).warning


class TestFailover:
    def test_repeated_faults_switch_to_secondary(self, clock):
        primary, secondary, scoring = make_pair(clock)
        primary.fail = True
        for _ in range(2):
            result = scoring.score(np.array([0.7, 0.0]))
            assert result.source == "secondary"
        assert scoring.using_fallback
        assert scoring.primary_faults == 2
        # With the breaker open the primary is not even called.
        calls_before = primary.calls
        scoring.score(np.array([0.7, 0.0]))
        assert primary.calls == calls_before

    def test_secondary_uses_its_own_threshold(self, clock):
        primary, secondary, scoring = make_pair(clock)
        primary.fail = True
        # Secondary score = 0.7 + 9.6 = 10.3 >= its threshold 10.0.
        assert scoring.score(np.array([0.7, 0.0])).warning
        # 0.1 + 9.6 = 9.7 < 10.0: no warning even though 0.1 would be
        # compared against 0.5 by the primary's scale.
        assert not scoring.score(np.array([0.1, 0.0])).warning

    def test_nan_primary_score_is_a_fault(self, clock):
        primary, _, scoring = make_pair(clock)
        primary.return_nan = True
        result = scoring.score(np.array([0.7, 0.0]))
        assert result.source == "secondary"
        assert scoring.primary_faults == 1

    def test_latency_budget_counts_as_fault(self, clock):
        primary, _, scoring = make_pair(clock, latency_budget=300.0)
        primary.simulated_latency = 900.0
        result = scoring.score(np.array([0.7, 0.0]))
        assert result.source == "secondary"
        assert scoring.primary_faults == 1
        assert primary.calls == 0  # too slow: not even invoked

    def test_primary_probed_again_after_cooldown(self, clock):
        primary, _, scoring = make_pair(clock)
        primary.fail = True
        scoring.score(np.array([0.7, 0.0]))
        scoring.score(np.array([0.7, 0.0]))
        assert scoring.using_fallback
        primary.fail = False
        clock.state["now"] = 150.0  # past the 100 s cooldown
        result = scoring.score(np.array([0.7, 0.0]))
        assert result.source == "primary"
        assert not scoring.using_fallback


class TestNoSecondary:
    def test_null_score_keeps_cycle_alive(self, clock):
        primary, _, scoring = make_pair(clock, secondary=False)
        primary.fail = True
        result = scoring.score(np.array([0.7, 0.0]))
        assert result.source == "none"
        assert math.isnan(result.score)
        assert not result.warning
        assert scoring.null_scores == 1

    def test_faulting_secondary_also_nulls(self, clock):
        primary, secondary, scoring = make_pair(clock)
        primary.fail = True
        secondary.fail = True
        result = scoring.score(np.array([0.7, 0.0]))
        assert result.source == "none"
        assert not result.warning


class TestThresholdProperty:
    def test_active_model_threshold(self, clock):
        primary, secondary, scoring = make_pair(clock)
        assert scoring.threshold == primary.threshold
        primary.fail = True
        scoring.score(np.array([0.7, 0.0]))
        scoring.score(np.array([0.7, 0.0]))
        assert scoring.threshold == secondary.threshold
