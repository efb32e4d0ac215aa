"""Multivariate State Estimation Technique (MSET, Singer/Gross style).

"Well-known approaches are the Multivariate State Estimation Technique
(MSET)."  The idea: learn a memory matrix of healthy-state exemplars;
estimate each fresh observation as a similarity-weighted combination of
exemplars; large residuals mean the system left the healthy manifold.

This implementation uses k-means exemplar selection over healthy training
rows and Gaussian-kernel similarity weights; the score is the mean
per-variable squared residual in standardized units (a SPRT-free residual
magnitude, adequate for ROC evaluation).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.prediction.base import PredictorInfo, SymptomPredictor, is_binary
from repro.prediction.kmeans import kmeans2
from repro.rng import ensure_rng


class MSETPredictor(SymptomPredictor):
    """Healthy-manifold residual scoring."""

    info = PredictorInfo(
        name="MSET",
        category="symptom-monitoring/system-models",
        description="Multivariate state estimation residuals vs healthy exemplars",
    )

    def __init__(
        self,
        n_exemplars: int = 32,
        bandwidth: float = 1.0,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if n_exemplars < 2:
            raise ConfigurationError("need at least 2 exemplars")
        if bandwidth <= 0:
            raise ConfigurationError("bandwidth must be positive")
        self.n_exemplars = n_exemplars
        self.bandwidth = bandwidth
        self.rng = ensure_rng(rng, default_seed=0)
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self.memory_: np.ndarray | None = None

    def fit_samples(self, x: np.ndarray, y: np.ndarray) -> "MSETPredictor":
        """Learn exemplars from the *healthy* subset of the training data.

        ``y`` is the availability target or boolean failure labels; rows
        labeled failure-prone are excluded from the memory matrix.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if is_binary(y):
            healthy = y < 0.5
        else:
            healthy = y >= np.quantile(y, 0.25)
        pool = x[healthy]
        if pool.shape[0] < self.n_exemplars:
            pool = x
        self._mean = pool.mean(axis=0)
        self._std = np.where(pool.std(axis=0) > 1e-12, pool.std(axis=0), 1.0)
        standardized = (pool - self._mean) / self._std
        seed = int(self.rng.integers(0, 2**31 - 1))
        k = min(self.n_exemplars, standardized.shape[0])
        self.memory_, _ = kmeans2(standardized, k, seed)
        self._fitted = True
        return self

    def _estimate(self, xs: np.ndarray) -> np.ndarray:
        """Similarity-weighted reconstruction of each standardized row."""
        diff = xs[:, None, :] - self.memory_[None, :, :]
        d2 = np.einsum("nik,nik->ni", diff, diff)
        weights = np.exp(-0.5 * d2 / self.bandwidth**2)
        weights /= weights.sum(axis=1, keepdims=True) + 1e-12
        return weights @ self.memory_

    def score_samples(self, x: np.ndarray) -> np.ndarray:
        """Mean squared residual vs the healthy-state estimate."""
        self._require_fitted()
        xs = (np.atleast_2d(np.asarray(x, dtype=float)) - self._mean) / self._std
        residual = xs - self._estimate(xs)
        return np.mean(residual**2, axis=1)
