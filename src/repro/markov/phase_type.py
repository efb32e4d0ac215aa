"""Continuous phase-type distributions.

The paper computes reliability ``R(t)`` and hazard rate ``h(t)`` of a system
with proactive fault management as the first-passage-time distribution into
an absorbing failure state of a CTMC (Sect. 5.4, Eqs. 9-13):

.. math::

    F(t) = 1 - \\alpha \\exp(t T) \\mathbf{1}, \\qquad
    f(t) = \\alpha \\exp(t T) t_0,

where ``T`` is the transient submatrix of the generator, ``t_0 = -T 1`` the
exit-rate vector and ``alpha`` the initial distribution over transient
states.  The paper notes the symbolic closed form fills pages; we evaluate
it numerically via the matrix exponential.
"""

from __future__ import annotations

from typing import Sequence

import math

import numpy as np

from repro.errors import ModelError
from repro.markov.ctmc import CTMC

_TOL = 1e-12


class PhaseTypeDistribution:
    """Distribution of the absorption time of a CTMC.

    Parameters
    ----------
    transient_generator:
        The submatrix ``T`` of the generator restricted to transient states.
        Row sums must be non-positive, with at least one strictly negative
        (otherwise absorption never happens).
    alpha:
        Initial probability distribution over the transient states.
    """

    def __init__(
        self,
        transient_generator: np.ndarray | Sequence[Sequence[float]],
        alpha: np.ndarray | Sequence[float],
    ) -> None:
        t = np.asarray(transient_generator, dtype=float)
        a = np.asarray(alpha, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ModelError(f"T must be square, got {t.shape}")
        if a.shape != (t.shape[0],):
            raise ModelError("alpha length must match T")
        if np.any(a < -_TOL) or not np.isclose(a.sum(), 1.0, atol=1e-6):
            raise ModelError("alpha must be a probability distribution")
        exit_rates = -t.sum(axis=1)
        if np.any(exit_rates < -1e-7):
            raise ModelError("T rows must have non-positive sums")
        if not np.any(exit_rates > _TOL):
            raise ModelError("no exit to absorption: distribution is defective")
        self._t = t
        self._alpha = np.clip(a, 0.0, None)
        self._alpha /= self._alpha.sum()
        self._exit = np.clip(exit_rates, 0.0, None)

    @classmethod
    def from_ctmc(
        cls,
        chain: CTMC,
        absorbing: Sequence[int] | Sequence[str],
        initial_state: int | str = 0,
    ) -> "PhaseTypeDistribution":
        """Build the first-passage distribution into ``absorbing`` states.

        ``absorbing`` and ``initial_state`` may be given as names or indices
        of the chain's states.
        """
        indices = [
            chain.index_of(s) if isinstance(s, str) else int(s) for s in absorbing
        ]
        start = (
            chain.index_of(initial_state)
            if isinstance(initial_state, str)
            else int(initial_state)
        )
        if start in indices:
            raise ModelError("initial state must be transient")
        transient = [i for i in range(chain.n_states) if i not in indices]
        q = chain.generator
        t = q[np.ix_(transient, transient)]
        alpha = np.zeros(len(transient))
        alpha[transient.index(start)] = 1.0
        return cls(t, alpha)

    @property
    def transient_matrix(self) -> np.ndarray:
        """The transient generator submatrix ``T`` (copy)."""
        return self._t.copy()

    @property
    def alpha(self) -> np.ndarray:
        """The initial distribution over transient states (copy)."""
        return self._alpha.copy()

    @property
    def exit_vector(self) -> np.ndarray:
        """The exit-rate vector ``t_0 = -T 1`` (copy)."""
        return self._exit.copy()

    def _expm_alpha(self, t: float) -> np.ndarray:
        import scipy.linalg  # here, not at the top: runs never reach expm

        return self._alpha @ scipy.linalg.expm(self._t * t)

    def cdf(self, t: float) -> float:
        """``F(t) = 1 - alpha exp(tT) 1`` (Eq. 11), kept in [0, 1].

        Where ``F`` is far below one ulp (an Erlang chain shortly after
        0), the rounding of ``exp(tT)`` alone can make it negative.
        """
        if t < 0:
            return 0.0
        return min(max(float(1.0 - self._expm_alpha(t).sum()), 0.0), 1.0)

    def pdf(self, t: float) -> float:
        """``f(t) = alpha exp(tT) t_0`` (Eq. 12)."""
        if t < 0:
            return 0.0
        return float(self._expm_alpha(t) @ self._exit)

    def survival(self, t: float) -> float:
        """``R(t) = 1 - F(t)`` (Eq. 9) -- reliability at time ``t``."""
        return float(self._expm_alpha(max(t, 0.0)).sum())

    def hazard(self, t: float) -> float:
        """``h(t) = f(t) / (1 - F(t))`` (Eq. 10)."""
        surv = self.survival(t)
        if surv <= _TOL:
            return float("inf")
        return self.pdf(t) / surv

    def mean(self) -> float:
        """Expected absorption time: ``-alpha T^{-1} 1``."""
        return float(-self._alpha @ np.linalg.solve(self._t, np.ones(self._t.shape[0])))

    def moment(self, k: int) -> float:
        """``k``-th raw moment: ``(-1)^k k! alpha T^{-k} 1``."""
        if k < 1:
            raise ModelError("moment order must be >= 1")
        inv = np.linalg.inv(self._t)
        power = np.linalg.matrix_power(inv, k)
        sign = (-1) ** k
        return float(
            sign * math.factorial(k) * (self._alpha @ power @ np.ones(self._t.shape[0]))
        )

    def variance(self) -> float:
        """Variance of the absorption time."""
        m1 = self.mean()
        return self.moment(2) - m1 * m1

    def evaluate(self, times: Sequence[float]) -> dict[str, np.ndarray]:
        """Vectorized evaluation of reliability, cdf, pdf and hazard.

        Returns a dict with keys ``t``, ``reliability``, ``cdf``, ``pdf``
        and ``hazard`` -- exactly the series plotted in the paper's Fig. 10.
        """
        ts = np.asarray(times, dtype=float)
        reliability = np.empty_like(ts)
        pdf = np.empty_like(ts)
        for i, t in enumerate(ts):
            vec = self._expm_alpha(max(t, 0.0))
            reliability[i] = vec.sum()
            pdf[i] = vec @ self._exit
        cdf = 1.0 - reliability
        with np.errstate(divide="ignore", invalid="ignore"):
            hazard = np.where(reliability > _TOL, pdf / reliability, np.inf)
        return {
            "t": ts,
            "reliability": reliability,
            "cdf": cdf,
            "pdf": pdf,
            "hazard": hazard,
        }

    def sample(self, rng: np.random.Generator, size: int = 1) -> np.ndarray:
        """Sample absorption times by simulating the underlying CTMC."""
        n = self._t.shape[0]
        samples = np.empty(size)
        for s in range(size):
            state = int(rng.choice(n, p=self._alpha))
            t = 0.0
            while True:
                exit_rate = -self._t[state, state]
                if exit_rate <= _TOL:
                    # Defensive: a transient state must have positive exit.
                    raise ModelError("transient state with zero exit rate")
                t += rng.exponential(1.0 / exit_rate)
                to_absorb = self._exit[state] / exit_rate
                if rng.random() < to_absorb:
                    break
                probs = np.clip(self._t[state].copy(), 0.0, None)
                probs[state] = 0.0
                total = probs.sum()
                if total <= _TOL:
                    break
                state = int(rng.choice(n, p=probs / total))
            samples[s] = t
        return samples
