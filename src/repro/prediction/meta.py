"""Meta-learning: stacked generalization (Wolpert 1992).

The blueprint (Sect. 6) proposes combining per-layer failure predictors by
meta-learning; "one of the best-known meta-learning algorithms is called
'stacked generalization', which has successfully been applied to predict
failures for the IBM Blue Gene/L Systems".

Level 0: any collection of fitted predictors, reduced to their scores.
Level 1: a logistic-regression combiner trained on (out-of-sample) level-0
scores -- implemented here with plain Newton/IRLS on numpy.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.prediction.base import PredictorInfo


class LogisticCombiner:
    """L2-regularized logistic regression (IRLS)."""

    def __init__(self, ridge: float = 1e-3, max_iter: int = 50, tol: float = 1e-8) -> None:
        if ridge < 0:
            raise ConfigurationError("ridge must be non-negative")
        self.ridge = ridge
        self.max_iter = max_iter
        self.tol = tol
        self.weights_: np.ndarray | None = None
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None

    def fit(self, x: np.ndarray, labels: np.ndarray) -> "LogisticCombiner":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(labels, dtype=float).ravel()
        if x.shape[0] != y.size:
            raise ConfigurationError("x and labels must align")
        self._mean = x.mean(axis=0)
        self._std = np.where(x.std(axis=0) > 1e-12, x.std(axis=0), 1.0)
        design = np.column_stack([np.ones(x.shape[0]), (x - self._mean) / self._std])
        w = np.zeros(design.shape[1])
        for _ in range(self.max_iter):
            z = design @ w
            p = 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))
            gradient = design.T @ (p - y) + self.ridge * w
            weights = np.clip(p * (1.0 - p), 1e-9, None)
            hessian = (design * weights[:, None]).T @ design + self.ridge * np.eye(
                design.shape[1]
            )
            step = np.linalg.solve(hessian, gradient)
            w -= step
            if np.max(np.abs(step)) < self.tol:
                break
        self.weights_ = w
        return self

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self.weights_ is None:
            raise NotFittedError("combiner has not been fitted")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        design = np.column_stack([np.ones(x.shape[0]), (x - self._mean) / self._std])
        z = design @ self.weights_
        return 1.0 / (1.0 + np.exp(-np.clip(z, -35, 35)))


class StackedGeneralization:
    """Stacked combination of base-predictor scores.

    The caller supplies a level-0 *score matrix*: one column per base
    predictor, one row per example.  Producing out-of-sample level-0
    scores is the caller's responsibility (e.g. time-split the training
    period); :meth:`fit` then trains the level-1 combiner, and
    :meth:`score` fuses fresh score vectors.
    """

    info = PredictorInfo(
        name="Stacking",
        category="meta-learning",
        description="Logistic stacked generalization over base predictor scores",
    )

    def __init__(self, predictor_names: list[str], ridge: float = 1e-3) -> None:
        if not predictor_names:
            raise ConfigurationError("need at least one base predictor")
        self.predictor_names = list(predictor_names)
        self.combiner = LogisticCombiner(ridge=ridge)
        self.threshold = 0.5
        self._fitted = False

    def fit(self, score_matrix: np.ndarray, labels: np.ndarray) -> "StackedGeneralization":
        score_matrix = np.atleast_2d(np.asarray(score_matrix, dtype=float))
        if score_matrix.shape[1] != len(self.predictor_names):
            raise ConfigurationError(
                f"expected {len(self.predictor_names)} score columns, "
                f"got {score_matrix.shape[1]}"
            )
        self.combiner.fit(score_matrix, labels)
        self._fitted = True
        return self

    def score(self, score_matrix: np.ndarray) -> np.ndarray:
        """Fused failure probability per row."""
        if not self._fitted:
            raise NotFittedError("StackedGeneralization has not been fitted")
        return self.combiner.predict_proba(np.atleast_2d(score_matrix))

    def predict(self, score_matrix: np.ndarray) -> np.ndarray:
        return self.score(score_matrix) >= self.threshold

    def weights(self) -> dict[str, float]:
        """Learned per-predictor weights (standardized scale)."""
        if not self._fitted:
            raise NotFittedError("StackedGeneralization has not been fitted")
        return dict(
            zip(
                self.predictor_names,
                (float(w) for w in self.combiner.weights_[1:]),
                strict=True,
            )
        )
