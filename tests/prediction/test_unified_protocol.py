"""Unified Predictor protocol: TrainingData, batches, the family hooks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.prediction import PredictionBatch, TrainingData, make_predictor
from repro.prediction.base import EventPredictor, SymptomPredictor, is_binary
from repro.monitoring.records import EventSequence


def _sequences(n, events, label):
    return [
        EventSequence(
            times=list(np.linspace(0.0, 10.0, events)),
            message_ids=[1] * events,
            label=label,
        )
        for _ in range(n)
    ]


class TestTrainingData:
    def test_from_samples_round_trip(self, rng):
        x = rng.normal(size=(20, 3))
        y = rng.random(20)
        data = TrainingData.from_samples(x, y)
        np.testing.assert_array_equal(data.x, x)
        np.testing.assert_array_equal(data.target(), y)
        batch = data.batch()
        assert isinstance(batch, PredictionBatch)
        np.testing.assert_array_equal(batch.x, x)

    def test_target_falls_back_to_labels(self, rng):
        labels = rng.random(10) < 0.5
        data = TrainingData(x=rng.normal(size=(10, 2)), y=None, labels=labels)
        np.testing.assert_array_equal(data.target(), labels.astype(float))

    def test_batch_coerce_accepts_array(self, rng):
        x = rng.normal(size=(5, 2))
        batch = PredictionBatch.coerce(x)
        np.testing.assert_array_equal(batch.x, x)
        assert PredictionBatch.coerce(batch) is batch

    def test_batch_requires_alignment(self, rng):
        with pytest.raises(ConfigurationError):
            PredictionBatch(
                x=rng.normal(size=(3, 2)), sequences=_sequences(2, 3, None)
            )

    def test_require_missing_view(self, rng):
        batch = PredictionBatch(x=rng.normal(size=(3, 2)))
        with pytest.raises(ConfigurationError):
            batch.require_sequences("test")


class TestIsBinary:
    """``is_binary`` agrees with the ``np.unique`` set test it replaced."""

    @staticmethod
    def _by_unique(values) -> bool:
        return set(np.unique(values)).issubset({0.0, 1.0})

    def test_matches_the_unique_set_test(self):
        rng = np.random.default_rng(3)
        pool = [0.0, 1.0, -0.0, 0.5, -1.0, 2.0, np.nan, np.inf, -np.inf, 1e-300]
        cases = [
            np.array([]),
            np.zeros((0, 3)),
            np.array([], dtype=bool),
            np.array([np.nan]),
            np.array([0.0, np.nan]),
            np.array([True, False]),
            np.array([0, 1, 1]),
            np.array([0, 2]),
            np.array([[0.0, 1.0], [1.0, 0.0]]),
        ]
        for n in range(1, 12):
            for _ in range(40):
                cases.append(rng.choice(pool, n))
                cases.append(rng.choice([0.0, 1.0, -0.0], n))
                cases.append(rng.random(n) < 0.5)
        for values in cases:
            assert is_binary(values) is self._by_unique(values), values


class TestFamilyHooks:
    def test_hooks_are_abstract(self):
        class ScoreOnly(SymptomPredictor):
            def score_samples(self, x):
                return np.zeros(len(x))

        class SequenceScoreOnly(EventPredictor):
            def score_sequence(self, sequence):
                return 0.0

        for cls in (ScoreOnly, SequenceScoreOnly):
            with pytest.raises(TypeError, match="abstract"):
                cls()

    @pytest.mark.parametrize("name", ["ubf", "mset", "trend"])
    def test_symptom_fit_without_features_names_the_class(self, name):
        predictor = make_predictor(name, rng=np.random.default_rng(0))
        data = TrainingData(labels=np.array([True, False, False, True]))
        with pytest.raises(
            ConfigurationError,
            match=f"{type(predictor).__name__} consumes feature samples",
        ):
            predictor.fit(data)
