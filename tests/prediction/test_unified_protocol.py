"""Unified Predictor protocol: TrainingData, batches, the family hooks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.prediction import PredictionBatch, TrainingData, make_predictor
from repro.prediction.base import EventPredictor, SymptomPredictor
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
