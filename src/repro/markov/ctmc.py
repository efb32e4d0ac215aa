"""Continuous-time Markov chains.

Provides the CTMC machinery needed by the paper's Sect. 5 dependability
model: steady-state solution of the global balance equations, transient
state probabilities via the matrix exponential, uniformization, embedded
jump chains, first-passage analysis and trajectory sampling.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import ModelError
from repro.markov.dtmc import DTMC

_TOL = 1e-9


class CTMC:
    """A finite continuous-time Markov chain given by its generator matrix.

    Parameters
    ----------
    generator:
        Matrix ``Q`` with non-negative off-diagonal rates and rows summing
        to zero (diagonals are recomputed from the off-diagonals, so callers
        may pass zeros on the diagonal).
    state_names:
        Optional human-readable names, one per state.
    """

    def __init__(
        self,
        generator: np.ndarray | Sequence[Sequence[float]],
        state_names: Sequence[str] | None = None,
    ) -> None:
        q = np.asarray(generator, dtype=float).copy()
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ModelError(f"generator must be square, got {q.shape}")
        off_diag = q - np.diag(np.diag(q))
        if np.any(off_diag < -_TOL):
            raise ModelError("off-diagonal rates must be non-negative")
        off_diag = np.clip(off_diag, 0.0, None)
        q = off_diag - np.diag(off_diag.sum(axis=1))
        self._generator = q
        if state_names is not None and len(state_names) != q.shape[0]:
            raise ModelError("state_names length must match generator size")
        self.state_names = list(state_names) if state_names else [
            f"S{i}" for i in range(q.shape[0])
        ]

    @classmethod
    def from_rates(
        cls,
        state_names: Sequence[str],
        rates: Mapping[tuple[str, str], float],
    ) -> "CTMC":
        """Build a CTMC from a ``{(src, dst): rate}`` mapping.

        This is the most readable way to transcribe a transition diagram
        such as the paper's Fig. 9 into code.
        """
        names = list(state_names)
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise ModelError("state names must be unique")
        q = np.zeros((len(names), len(names)))
        for (src, dst), rate in rates.items():
            if src not in index or dst not in index:
                raise ModelError(f"unknown state in rate ({src!r}, {dst!r})")
            if src == dst:
                raise ModelError("self-loop rates are not allowed in a CTMC")
            if rate < 0:
                raise ModelError(f"negative rate for ({src!r}, {dst!r})")
            q[index[src], index[dst]] += rate
        return cls(q, names)

    @property
    def generator(self) -> np.ndarray:
        """The generator matrix ``Q`` (read-only copy)."""
        return self._generator.copy()

    @property
    def n_states(self) -> int:
        return self._generator.shape[0]

    def index_of(self, name: str) -> int:
        """Index of the state called ``name``."""
        try:
            return self.state_names.index(name)
        except ValueError as exc:
            raise ModelError(f"unknown state name: {name!r}") from exc

    def exit_rate(self, state: int) -> float:
        """Total rate of leaving ``state`` (holding-time parameter)."""
        return -self._generator[state, state]

    def steady_state(self) -> np.ndarray:
        """Solve the global balance equations ``pi Q = 0``, ``sum(pi) = 1``."""
        n = self.n_states
        a = np.vstack([self._generator.T, np.ones((1, n))])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        solution, _, rank, _ = np.linalg.lstsq(a, b, rcond=None)
        if rank < n:
            raise ModelError("CTMC has no unique steady-state distribution")
        pi = np.clip(solution, 0.0, None)
        total = pi.sum()
        if total <= 0:
            raise ModelError("steady-state solve produced a degenerate distribution")
        return pi / total

    def transient_distribution(
        self, initial: np.ndarray | Sequence[float], t: float
    ) -> np.ndarray:
        """State distribution at time ``t``: ``pi(t) = pi(0) exp(Q t)``."""
        dist = np.asarray(initial, dtype=float)
        if dist.shape != (self.n_states,):
            raise ModelError("initial distribution has wrong length")
        if t < 0:
            raise ModelError("time must be non-negative")
        import scipy.linalg  # here, not at the top: runs never reach expm

        return dist @ scipy.linalg.expm(self._generator * t)

    def uniformized_dtmc(self, rate: float | None = None) -> tuple[DTMC, float]:
        """Uniformization: a DTMC ``P = I + Q / Lambda`` plus the rate Lambda.

        ``rate`` defaults to 1.05x the largest exit rate, which guarantees a
        valid stochastic matrix with a strictly positive self-loop in every
        non-absorbing state.
        """
        max_exit = max((self.exit_rate(i) for i in range(self.n_states)), default=0.0)
        if rate is None:
            rate = max_exit * 1.05 if max_exit > 0 else 1.0
        if rate < max_exit:
            raise ModelError("uniformization rate must dominate all exit rates")
        p = np.eye(self.n_states) + self._generator / rate
        return DTMC(p, self.state_names), rate

    def embedded_jump_chain(self) -> DTMC:
        """The DTMC of jump targets (absorbing states become self-loops)."""
        p = np.zeros_like(self._generator)
        for i in range(self.n_states):
            exit_rate = self.exit_rate(i)
            if exit_rate <= _TOL:
                p[i, i] = 1.0
            else:
                p[i] = self._generator[i] / exit_rate
                p[i, i] = 0.0
        return DTMC(p, self.state_names)

    def absorbing_states(self) -> list[int]:
        """States with zero exit rate."""
        return [i for i in range(self.n_states) if self.exit_rate(i) <= _TOL]

    def mean_first_passage_time(
        self, start: int, targets: Sequence[int]
    ) -> float:
        """Expected time to first reach any state in ``targets``.

        Solves the standard linear system over the complement of the target
        set.  Returns ``inf`` when the targets are unreachable.
        """
        target_set = set(targets)
        if start in target_set:
            return 0.0
        others = [i for i in range(self.n_states) if i not in target_set]
        pos = {state: k for k, state in enumerate(others)}
        q = self._generator[np.ix_(others, others)]
        try:
            times = np.linalg.solve(q, -np.ones(len(others)))
        except np.linalg.LinAlgError:
            return float("inf")
        value = times[pos[start]]
        return float(value) if value >= 0 else float("inf")

    def accumulated_occupancy(
        self,
        initial: np.ndarray | Sequence[float],
        horizon: float,
        states: Sequence[int] | Sequence[str],
        n_steps: int = 200,
    ) -> float:
        """Expected total time spent in ``states`` over ``[0, horizon]``.

        Computes ``integral_0^T pi(t) . 1_states dt`` by Simpson quadrature
        over transient distributions -- e.g. the expected *downtime* of a
        dependability model over a mission, which is what downtime-cost
        analyses integrate.
        """
        if horizon < 0:
            raise ModelError("horizon must be non-negative")
        if horizon == 0:
            return 0.0
        if n_steps < 2:
            raise ModelError("n_steps must be >= 2")
        indices = [
            self.index_of(s) if isinstance(s, str) else int(s) for s in states
        ]
        dist = np.asarray(initial, dtype=float)
        if dist.shape != (self.n_states,):
            raise ModelError("initial distribution has wrong length")
        if n_steps % 2 == 1:
            n_steps += 1  # Simpson needs an even interval count
        ts = np.linspace(0.0, horizon, n_steps + 1)
        import scipy.linalg  # here, not at the top: runs never reach expm

        step = scipy.linalg.expm(self._generator * (horizon / n_steps))
        mass = np.empty(ts.size)
        current = dist.copy()
        for i in range(ts.size):
            mass[i] = current[indices].sum()
            current = current @ step
        weights = np.ones(ts.size)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        h = horizon / n_steps
        return float(h / 3.0 * (weights @ mass))

    def sample_path(
        self,
        start: int,
        horizon: float,
        rng: np.random.Generator,
    ) -> list[tuple[float, int]]:
        """Sample a trajectory ``[(time, state), ...]`` up to ``horizon``.

        The first entry is ``(0.0, start)``; subsequent entries record jump
        times and the state entered.  Sampling stops at the horizon or when
        an absorbing state is entered.
        """
        if not 0 <= start < self.n_states:
            raise ModelError(f"start state {start} out of range")
        path = [(0.0, start)]
        t, state = 0.0, start
        while True:
            exit_rate = self.exit_rate(state)
            if exit_rate <= _TOL:
                break
            t += rng.exponential(1.0 / exit_rate)
            if t >= horizon:
                break
            probs = np.clip(self._generator[state].copy(), 0.0, None)
            probs[state] = 0.0
            probs /= probs.sum()
            state = int(rng.choice(self.n_states, p=probs))
            path.append((t, state))
        return path

    def occupancy_fractions(
        self, path: Sequence[tuple[float, int]], horizon: float
    ) -> np.ndarray:
        """Fraction of ``[0, horizon]`` spent in each state along ``path``."""
        occupancy = np.zeros(self.n_states)
        for k, (t_k, state) in enumerate(path):
            t_next = path[k + 1][0] if k + 1 < len(path) else horizon
            occupancy[state] += max(0.0, min(t_next, horizon) - t_k)
        return occupancy / horizon if horizon > 0 else occupancy

    def __repr__(self) -> str:
        return f"CTMC(n_states={self.n_states}, states={self.state_names})"
