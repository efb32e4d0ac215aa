"""Noisy-OR arbitration: fusion math, calibration, attribution, protocol."""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError
from repro.prediction import (
    ArbitrationMember,
    NoisyOrArbitrator,
    TrainingData,
)
from repro.prediction.base import SymptomPredictor


class ColumnScorer(SymptomPredictor):
    """Deterministic stub: score = one feature column."""

    def __init__(self, column: int = 0):
        super().__init__()
        self.column = column

    def fit_samples(self, x, y):
        self._fitted = True
        return self

    def score_samples(self, x):
        return np.asarray(x, dtype=float)[:, self.column]


@pytest.fixture()
def panel_data(rng):
    """Two informative feature columns with a logistic failure law."""
    n = 500
    x = rng.normal(size=(n, 2))
    risk = 1.0 / (1.0 + np.exp(-(2.0 * x[:, 0] + 0.8 * x[:, 1])))
    labels = rng.random(n) < risk
    return TrainingData(x=x, y=risk, labels=labels)


@pytest.fixture()
def fitted(panel_data):
    arbitrator = NoisyOrArbitrator(
        [("a", ColumnScorer(0)), ("b", ColumnScorer(1))],
        criticality={"b": 0.5},
        leak=0.02,
    )
    return arbitrator.fit(panel_data)


class TestFusion:
    def test_score_matches_closed_form(self, fitted, panel_data):
        batch = panel_data.batch()
        probs = fitted.member_probabilities(batch)
        weights = np.array([m.criticality for m in fitted.members])
        expected = 1.0 - (1.0 - fitted.leak) * np.prod(
            1.0 - weights * probs, axis=1
        )
        np.testing.assert_allclose(fitted.score_batch(batch), expected)

    def test_probabilities_bounded(self, fitted, panel_data):
        fused = fitted.score_batch(panel_data.batch())
        assert np.all(fused >= fitted.leak - 1e-12)
        assert np.all(fused <= 1.0)

    def test_monotone_in_member_probabilities(self, fitted, rng):
        low = rng.random((50, 2)) * 0.5
        high = np.clip(low + rng.random((50, 2)) * 0.5, 0.0, 1.0)
        assert np.all(fitted._fuse(high) >= fitted._fuse(low) - 1e-12)

    def test_monotone_in_criticality(self, panel_data):
        probs = np.array([[0.4, 0.6], [0.1, 0.9]])
        fused = []
        for weight in (0.2, 0.5, 1.0):
            arbitrator = NoisyOrArbitrator(
                [("a", ColumnScorer(0)), ("b", ColumnScorer(1))],
                criticality={"b": weight},
            )
            fused.append(arbitrator._fuse(probs))
        assert np.all(fused[1] >= fused[0])
        assert np.all(fused[2] >= fused[1])

    def test_leak_is_the_floor(self, fitted):
        fused = fitted._fuse(np.zeros((3, 2)))
        np.testing.assert_allclose(fused, fitted.leak)

    def test_fused_beats_any_single_member(self, fitted):
        """Noisy-OR never reports less risk than its scaled strongest cause."""
        probs = np.array([[0.3, 0.8], [0.05, 0.0], [0.99, 0.99]])
        weights = np.array([m.criticality for m in fitted.members])
        fused = fitted._fuse(probs)
        assert np.all(fused >= np.max(weights * probs, axis=1) - 1e-12)


class TestValidation:
    def test_needs_members(self):
        with pytest.raises(ConfigurationError):
            NoisyOrArbitrator([])

    def test_leak_range(self):
        with pytest.raises(ConfigurationError):
            NoisyOrArbitrator([("a", ColumnScorer())], leak=1.0)

    def test_duplicate_names(self):
        with pytest.raises(ConfigurationError):
            NoisyOrArbitrator([("a", ColumnScorer(0)), ("a", ColumnScorer(1))])

    def test_unknown_criticality_member(self):
        with pytest.raises(ConfigurationError):
            NoisyOrArbitrator([("a", ColumnScorer())], criticality={"ghost": 0.5})

    def test_criticality_range(self):
        with pytest.raises(ConfigurationError):
            ArbitrationMember("a", ColumnScorer(), criticality=1.5)

    def test_non_predictor_member_rejected(self):
        for members in (
            [object()],
            [("a", object())],
            [("a", object(), 0.5)],
        ):
            with pytest.raises(ConfigurationError, match="must be a Predictor"):
                NoisyOrArbitrator(members)
        with pytest.raises(ConfigurationError, match="must be a Predictor"):
            ArbitrationMember("a", object())

    def test_criticality_map_cannot_push_member_out_of_range(self):
        member = ArbitrationMember("a", ColumnScorer(), 0.5)
        with pytest.raises(ConfigurationError, match=r"must be in \[0, 1\]"):
            NoisyOrArbitrator([member], criticality={"a": 5.0})
        assert member.criticality == 0.5

    def test_criticality_map_leaves_callers_member_untouched(self, panel_data):
        member = ArbitrationMember("a", ColumnScorer(), 0.5)
        arbitrator = NoisyOrArbitrator([member], criticality={"a": 0.25})
        arbitrator.fit(panel_data)
        assert arbitrator.members[0].criticality == 0.25
        assert member.criticality == 0.5
        assert member.calibrator is None

    def test_fit_requires_labels(self, rng):
        arbitrator = NoisyOrArbitrator([("a", ColumnScorer())])
        with pytest.raises(ConfigurationError):
            arbitrator.fit(TrainingData(x=rng.normal(size=(10, 1)), y=None))

    def test_score_requires_fit(self, rng):
        arbitrator = NoisyOrArbitrator([("a", ColumnScorer())])
        with pytest.raises(NotFittedError):
            arbitrator.score_batch(rng.normal(size=(4, 1)))


class TestAttribution:
    def test_shares_sum_to_one(self, fitted, panel_data):
        for attribution in fitted.attribute(panel_data.batch())[:20]:
            total = attribution.leak_share + sum(
                attribution.member_shares.values()
            )
            assert total == pytest.approx(1.0)

    def test_zero_total_yields_zero_shares(self):
        arbitrator = NoisyOrArbitrator(
            [("a", ColumnScorer(0)), ("b", ColumnScorer(1))], leak=0.0
        )
        attribution = arbitrator._attribution_row(np.zeros(2), 0.0)
        assert attribution.leak_share == 0.0
        assert all(s == 0.0 for s in attribution.member_shares.values())

    def test_attribute_matches_score_batch(self, fitted, panel_data):
        batch = panel_data.batch()
        fused = fitted.score_batch(batch)
        attributions = fitted.attribute(batch)
        np.testing.assert_allclose(
            [a.fused for a in attributions], fused
        )

    def test_dominant_member_owns_the_risk(self, fitted):
        attribution = fitted._attribution_row(np.array([0.95, 0.01]), 0.9)
        assert attribution.member_shares["a"] > 0.8
        assert attribution.member_shares["a"] > attribution.member_shares["b"]

    def test_last_attribution_and_json(self, fitted, panel_data):
        fitted.score_batch(panel_data.batch())
        assert fitted.last_attribution is not None
        doc = fitted.last_attribution.to_json_dict()
        json.dumps(doc)  # JSON-able
        assert set(doc) == {
            "fused",
            "leak_share",
            "member_probabilities",
            "member_shares",
        }


class TestProtocol:
    def test_scores_are_probabilities_flag(self, fitted):
        assert fitted.scores_are_probabilities is True

    def test_consumes_is_union(self, fitted):
        assert fitted.consumes == frozenset({"samples"})

    def test_informative_panel_separates_classes(self, fitted, panel_data):
        fused = fitted.score_batch(panel_data.batch())
        labels = panel_data.labels
        assert fused[labels].mean() > fused[~labels].mean() + 0.2

    def test_score_samples_without_event_members(self, fitted, panel_data):
        np.testing.assert_allclose(
            fitted.score_samples(panel_data.x),
            fitted.score_batch(panel_data.batch()),
        )

    def test_pickle_round_trip(self, fitted, panel_data):
        fitted.live_window = lambda n: []  # unpicklable runtime binding
        fitted.score_batch(panel_data.batch())
        clone = pickle.loads(pickle.dumps(fitted))
        assert clone.live_window is None
        assert clone.last_attribution is None
        assert clone.training_probabilities is None
        np.testing.assert_allclose(
            clone.score_batch(panel_data.batch()),
            fitted.score_batch(panel_data.batch()),
        )

    def test_calibrate_threshold(self, fitted, panel_data):
        fused = fitted.score_batch(panel_data.batch())
        fitted.calibrate_threshold(fused, panel_data.labels)
        assert 0.0 <= fitted.threshold <= 1.0
        table = fitted.evaluate_batch(panel_data.batch(), panel_data.labels)
        assert table.f_measure > 0.5


class TestTrainingPass:
    """``fit`` keeps the training rows' member probabilities, and
    ``fit_and_score`` fuses them instead of scoring the rows again."""

    def _panel(self):
        return NoisyOrArbitrator(
            [("a", ColumnScorer(0)), ("b", ColumnScorer(1))],
            criticality={"b": 0.5},
            leak=0.02,
        )

    def test_fit_keeps_the_training_probabilities(self, fitted, panel_data):
        kept = fitted.training_probabilities
        assert kept.shape == (len(panel_data.labels), 2)
        assert np.array_equal(kept, fitted.member_probabilities(panel_data.batch()))

    def test_fit_and_score_equals_a_second_pass(self, panel_data):
        panel = self._panel()
        scores = panel.fit_and_score(panel_data)
        attribution = panel.last_attribution
        assert np.array_equal(scores, panel.score_batch(panel_data.batch()))
        assert attribution == panel.last_attribution

    def test_default_is_fit_then_score(self, panel_data):
        member = ColumnScorer(1)
        scores = member.fit_and_score(panel_data)
        assert member._fitted
        assert np.array_equal(scores, panel_data.x[:, 1])

    def test_kept_probabilities_stay_out_of_pickles(self, fitted):
        with_kept = pickle.dumps(fitted)
        fitted.training_probabilities = None
        assert pickle.dumps(fitted) == with_kept
