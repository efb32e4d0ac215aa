import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError
from repro.prediction.calibration import PlattScaling


@pytest.fixture()
def logistic_data(rng):
    """Scores whose true P(y|s) is sigmoid(2 s - 1)."""
    scores = rng.normal(0.5, 1.0, 3_000)
    p_true = 1.0 / (1.0 + np.exp(-(2.0 * scores - 1.0)))
    labels = rng.random(scores.size) < p_true
    return scores, labels, p_true


class TestPlattScaling:
    def test_recovers_logistic_parameters(self, logistic_data):
        scores, labels, _ = logistic_data
        platt = PlattScaling().fit(scores, labels)
        assert platt.a_ == pytest.approx(2.0, rel=0.15)
        assert platt.b_ == pytest.approx(-1.0, abs=0.25)

    def test_probabilities_close_to_truth(self, logistic_data):
        scores, labels, p_true = logistic_data
        platt = PlattScaling().fit(scores, labels)
        predicted = platt.predict_proba(scores)
        assert np.max(np.abs(predicted - p_true)) < 0.1

    def test_monotone(self, logistic_data):
        scores, labels, _ = logistic_data
        platt = PlattScaling().fit(scores, labels)
        grid = np.linspace(scores.min(), scores.max(), 50)
        probs = platt.predict_proba(grid)
        assert np.all(np.diff(probs) >= -1e-12)

    def test_calibration_beats_raw_scores(self, rng):
        """Raw scores interpreted as probabilities are badly calibrated;
        Platt-scaled ones lie closer to the known ``P(y | s)``."""
        scores = rng.normal(0.0, 3.0, 4_000)
        p_true = 1.0 / (1.0 + np.exp(-scores))
        labels = rng.random(scores.size) < p_true
        raw_as_prob = 1.0 / (1.0 + np.exp(-scores / 10.0))  # too flat
        platt = PlattScaling().fit(scores, labels)
        calibrated = platt.predict_proba(scores)
        assert np.mean(np.abs(calibrated - p_true)) < (
            np.mean(np.abs(raw_as_prob - p_true))
        )

    def test_scalar_call(self, logistic_data):
        scores, labels, _ = logistic_data
        platt = PlattScaling().fit(scores, labels)
        assert 0.0 <= platt(0.5) <= 1.0

    def test_requires_both_classes(self):
        with pytest.raises(ConfigurationError):
            PlattScaling().fit(np.array([1.0, 2.0]), np.array([True, True]))

    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            PlattScaling().predict_proba(np.array([0.0]))

