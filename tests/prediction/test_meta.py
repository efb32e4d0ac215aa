import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError
from repro.prediction.meta import LogisticCombiner, StackedGeneralization


@pytest.fixture()
def stacking_problem(rng):
    """Two base scores: one informative, one noise."""
    n = 600
    labels = rng.random(n) < 0.3
    good = labels + 0.4 * rng.standard_normal(n)
    noise = rng.standard_normal(n)
    scores = np.column_stack([good, noise])
    return scores, labels


class TestLogisticCombiner:
    def test_learns_separable_problem(self, rng):
        x = rng.standard_normal((400, 1))
        labels = x[:, 0] > 0
        combiner = LogisticCombiner()
        combiner.fit(x, labels)
        proba = combiner.predict_proba(np.array([[3.0], [-3.0]]))
        assert proba[0] > 0.95 and proba[1] < 0.05

    def test_probabilities_in_unit_interval(self, stacking_problem):
        scores, labels = stacking_problem
        combiner = LogisticCombiner()
        combiner.fit(scores, labels)
        proba = combiner.predict_proba(scores)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_requires_fit(self):
        with pytest.raises(NotFittedError):
            LogisticCombiner().predict_proba(np.zeros((1, 2)))

    def test_rejects_misaligned(self):
        with pytest.raises(ConfigurationError):
            LogisticCombiner().fit(np.zeros((5, 2)), np.zeros(4))


class TestStackedGeneralization:
    def test_upweights_informative_predictor(self, stacking_problem):
        scores, labels = stacking_problem
        stack = StackedGeneralization(["good", "noise"])
        stack.fit(scores, labels)
        weights = stack.weights()
        assert abs(weights["good"]) > 3 * abs(weights["noise"])
        assert {type(w) for w in weights.values()} == {float}

    def test_fused_score_beats_noise_column(self, stacking_problem):
        from repro.prediction.metrics import auc

        scores, labels = stacking_problem
        stack = StackedGeneralization(["good", "noise"])
        stack.fit(scores, labels)
        fused = stack.score(scores)
        assert auc(fused, labels) > auc(scores[:, 1], labels) + 0.2

    def test_predict_uses_threshold(self, stacking_problem):
        scores, labels = stacking_problem
        stack = StackedGeneralization(["good", "noise"])
        stack.fit(scores, labels)
        stack.threshold = 0.99
        assert stack.predict(scores).mean() < 0.5

    def test_column_count_checked(self, stacking_problem):
        scores, labels = stacking_problem
        stack = StackedGeneralization(["only-one"])
        with pytest.raises(ConfigurationError):
            stack.fit(scores, labels)

    def test_requires_base_predictors(self):
        with pytest.raises(ConfigurationError):
            StackedGeneralization([])

    def test_requires_fit(self, stacking_problem):
        scores, _ = stacking_problem
        with pytest.raises(NotFittedError):
            StackedGeneralization(["a", "b"]).score(scores)
