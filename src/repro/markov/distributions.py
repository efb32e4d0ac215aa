"""Discrete duration distributions for semi-Markov models.

A hidden *semi*-Markov model differs from a plain HMM in that the time spent
in a state is governed by an explicit duration distribution rather than the
implicit geometric law of self-loops.  The HSMM failure predictor (paper
Sect. 3.2) relies on such durations to capture the timing structure of
error sequences.

All distributions here are supported on ``{1, 2, ..., max_duration}`` and
expose a probability vector ``pmf()`` (index 0 corresponds to duration 1),
moment-matching ``fit()`` updates for EM, and sampling.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.errors import ModelError


class DiscreteDuration(abc.ABC):
    """A duration distribution on ``{1, ..., max_duration}``."""

    def __init__(self, max_duration: int) -> None:
        if max_duration < 1:
            raise ModelError("max_duration must be >= 1")
        self.max_duration = int(max_duration)

    @abc.abstractmethod
    def pmf(self) -> np.ndarray:
        """Probability vector of length ``max_duration`` (sums to 1)."""

    @abc.abstractmethod
    def fit(self, weights: np.ndarray) -> None:
        """Moment-match the distribution to weighted duration counts.

        ``weights[d-1]`` is the (possibly fractional) expected number of
        times duration ``d`` was observed, as produced by the E-step of EM.
        """

    def _normalize(self, raw: np.ndarray) -> np.ndarray:
        raw = np.clip(raw, 0.0, None)
        total = raw.sum()
        if total <= 0:
            # Degenerate input: fall back to uniform so EM can recover.
            return np.full(self.max_duration, 1.0 / self.max_duration)
        return raw / total

    def mean(self) -> float:
        durations = np.arange(1, self.max_duration + 1)
        return float(self.pmf() @ durations)

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.choice(np.arange(1, self.max_duration + 1), p=self.pmf()))

    @staticmethod
    def _weighted_mean(weights: np.ndarray) -> float:
        weights = np.clip(np.asarray(weights, dtype=float), 0.0, None)
        total = weights.sum()
        durations = np.arange(1, len(weights) + 1, dtype=float)
        if total <= 0:
            return 1.0
        return float(weights @ durations / total)


class GeometricDuration(DiscreteDuration):
    """Geometric durations -- equivalent to an HMM self-loop.

    Included both as the simplest duration model and as the ablation
    baseline: an HSMM with geometric durations collapses to a plain HMM.
    """

    def __init__(self, max_duration: int, p: float = 0.5) -> None:
        super().__init__(max_duration)
        if not 0 < p <= 1:
            raise ModelError("geometric parameter must be in (0, 1]")
        self.p = float(p)

    def pmf(self) -> np.ndarray:
        d = np.arange(1, self.max_duration + 1)
        raw = self.p * (1.0 - self.p) ** (d - 1)
        return self._normalize(raw)

    def fit(self, weights: np.ndarray) -> None:
        mean = self._weighted_mean(weights)
        self.p = float(np.clip(1.0 / max(mean, 1.0), 1e-6, 1.0))


class UniformDuration(DiscreteDuration):
    """Uniform durations on ``{low, ..., high}``."""

    def __init__(self, max_duration: int, low: int = 1, high: int | None = None) -> None:
        super().__init__(max_duration)
        high = max_duration if high is None else high
        if not 1 <= low <= high <= max_duration:
            raise ModelError("need 1 <= low <= high <= max_duration")
        self.low = int(low)
        self.high = int(high)

    def pmf(self) -> np.ndarray:
        raw = np.zeros(self.max_duration)
        raw[self.low - 1 : self.high] = 1.0
        return self._normalize(raw)

    def fit(self, weights: np.ndarray) -> None:
        weights = np.clip(np.asarray(weights, dtype=float), 0.0, None)
        support = np.nonzero(weights > weights.max() * 1e-3)[0]
        if support.size:
            self.low = int(support.min()) + 1
            self.high = int(support.max()) + 1


class EmpiricalDuration(DiscreteDuration):
    """Nonparametric durations: the pmf is the (smoothed) weight vector.

    This is the most faithful counterpart of the paper's HSMM approach,
    which learns duration behaviour directly from inter-error delays.
    """

    def __init__(
        self,
        max_duration: int,
        pmf: np.ndarray | None = None,
        smoothing: float = 1e-3,
    ) -> None:
        super().__init__(max_duration)
        self.smoothing = float(smoothing)
        if pmf is None:
            self._pmf = np.full(max_duration, 1.0 / max_duration)
        else:
            pmf = np.asarray(pmf, dtype=float)
            if pmf.shape != (max_duration,):
                raise ModelError("pmf length must equal max_duration")
            self._pmf = self._normalize(pmf)

    def pmf(self) -> np.ndarray:
        return self._pmf.copy()

    def fit(self, weights: np.ndarray) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.max_duration,):
            raise ModelError("weights length must equal max_duration")
        self._pmf = self._normalize(weights + self.smoothing)
