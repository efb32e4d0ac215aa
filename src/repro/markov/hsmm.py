"""Hidden semi-Markov models with explicit state durations.

This is the pattern-recognition engine behind the paper's HSMM failure
predictor (Sect. 3.2): error sequences are mapped to discrete-time symbol
sequences and scored by sequence log-likelihood under two trained models
(failure vs. non-failure).

The implementation is an explicit-duration ("segment") HSMM:

- hidden states do not self-transition; instead each visit to state ``j``
  lasts ``d`` time slots with probability ``p_j(d)`` given by a pluggable
  :class:`~repro.markov.distributions.DiscreteDuration`,
- one observation symbol is emitted per time slot from the state's
  categorical emission distribution.

Inference (forward likelihood, Viterbi segmentation) runs in log space in
``O(T * N^2 * D)``.  Two trainers are provided:

- segmental hard-EM (Viterbi re-estimation) -- fast and robust, the
  default for the short error sequences the predictor operates on;
- full Baum-Welch soft EM over segment posteriors (``algorithm="soft"``)
  -- the textbook explicit-duration HSMM re-estimation, monotone in true
  sequence likelihood.

Inference-core architecture
---------------------------
Scoring and Viterbi run one kernel over a whole batch: the sequences are
right-padded into a ``(T_max, B)`` symbol matrix and the recursion steps
once per time slot for all of them, assembling the segment scores of *all*
durations from a running cumulative-emission sum and reducing them with
one ``logsumexp`` / ``argmax``.  Each score is read at its sequence's own
last slot.  Right padding is exact: slot ``t`` only reads slots ``<= t``,
so padding never reaches an earlier slot, and the reductions are in-order
scans rather than shape-dependent pairwise sums -- a batched score is
bit-identical to the sequence scored alone, which is what a single
sequence is (a batch of one).
Columns run longest first, so finished sequences drop out of the per-slot
work.  The working set is ``O(D * B * N)``: entry masses and cumulative
emissions of the last ``D`` start slots live in ring buffers (Viterbi adds
its back-pointers, in the smallest integer type that holds them).  Hard-EM
segments all training sequences of an iteration in one pass.

The soft-EM E-step runs per sequence over full forward/backward tables,
accumulating segment posteriors duration-major with a difference-array for
the per-slot emission mass -- ``O(T * D * N)`` instead of ``O(T^2 * D * N)``.
Log-parameters are memoized behind a parameter-version fingerprint, so one
EM iteration or scoring batch builds them once.  The original loop
implementations live on as the correctness oracle the tests compare
against (``tests/markov/hsmm_reference.py``).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.errors import ModelError, NotFittedError
from repro.markov.distributions import DiscreteDuration, EmpiricalDuration
from repro.rng import ensure_rng

_EPS = 1e-12
_LOG_EPS = np.log(_EPS)


def _default_duration_factory(max_duration: int) -> DiscreteDuration:
    """Module-level default factory (keeps default models picklable)."""
    return EmpiricalDuration(max_duration)


@dataclass(frozen=True)
class Segment:
    """A maximal run of one hidden state in a Viterbi segmentation."""

    state: int
    start: int  # inclusive slot index
    end: int  # inclusive slot index

    @property
    def duration(self) -> int:
        return self.end - self.start + 1


class LogParams(NamedTuple):
    """Log-space model parameters, cached per parameter version."""

    log_pi: np.ndarray  # (n_states,)
    log_a: np.ndarray  # (n_states, n_states)
    log_b: np.ndarray  # (n_states, n_symbols)
    log_d: np.ndarray  # (n_states, max_duration)


def _normalize_rows(matrix: np.ndarray) -> np.ndarray:
    matrix = np.clip(matrix, 0.0, None)
    sums = matrix.sum(axis=1, keepdims=True)
    sums[sums <= 0] = 1.0
    return matrix / sums


# ----------------------------------------------------------------------
# Vectorized inference kernels
# ----------------------------------------------------------------------


def _logsumexp(a: np.ndarray, axis: int | None = None):
    """``scipy.special.logsumexp(a, axis=axis)`` for a non-empty float64 array.

    The same operations as scipy 1.17's real-valued path, so the values,
    shapes and scalar type are scipy's: the maxima are taken out of the
    sum and counted, the rest is shifted by them, and wherever that result
    is not finite (all ``-inf``, an ``inf`` or a ``nan``) the direct
    ``log(sum(exp(a)))`` stands instead.  A 0-d result is a scalar.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = np.log(np.sum(np.exp(a), axis=axes, keepdims=True))
    with np.errstate(divide="ignore", invalid="ignore"):
        top = np.max(a, axis=axes, keepdims=True)
        is_top = a == top
        count = np.sum(is_top.astype(float), axis=axes, keepdims=True)
        rest = np.sum(
            np.exp(np.where(is_top, -np.inf, a) - top), axis=axes, keepdims=True
        )
        rest = np.where(rest == 0, rest, rest / count)
        out = np.log1p(rest) + np.log(count) + top
    out = np.squeeze(np.where(np.isfinite(out), out, direct), axis=axes)
    return out[()] if out.ndim == 0 else out


def _lse(a: np.ndarray) -> np.ndarray:
    """Log-sum-exp over axis 0, adding the rows strictly in order.

    :func:`_logsumexp`'s separate handling of the maximum and of
    non-finite results costs more than the arithmetic on the small
    per-slot arrays this module reduces, so the kernels use this minimal
    max-shifted form (the loop oracle keeps ``scipy.special.logsumexp``,
    which computes the same value).  ``np.add.accumulate`` is an
    in-order scan whatever the array's shape, whereas ``np.sum`` switches
    to pairwise summation when the reduced axis is the contiguous one (e.g.
    a lone single-state sequence); the scan keeps a batched column
    bit-identical to the same sequence scored alone.
    """
    m = a.max(axis=0)
    finite = np.isfinite(m)
    safe = np.where(finite, m, 0.0)
    with np.errstate(divide="ignore"):
        out = safe + np.log(np.add.accumulate(np.exp(a - safe), axis=0)[-1])
    return np.where(finite, out, m)


def _forward_pass(
    obs: np.ndarray,
    log_pi: np.ndarray,
    log_a: np.ndarray,
    log_d: np.ndarray,
    cum: np.ndarray,
    max_duration: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Duration-vectorized forward recursion over one sequence, keeping the
    full tables the soft-EM E-step needs (scoring uses :func:`_forward_batch`).

    Returns ``(alpha, in_log)`` where ``alpha[t, j]`` is the log-mass of
    segments of state ``j`` ending exactly at ``t`` and ``in_log[s, j]``
    is the log-mass of entering state ``j`` at slot ``s`` (the initial law
    at ``s=0``, alpha-weighted transitions afterwards).  ``in_log`` is the
    quantity the reference loop recomputed once per (t, d); here it is
    maintained once per slot.
    """
    n = obs.size
    n_states = log_pi.size
    cum0 = np.vstack([np.zeros((1, n_states)), cum])  # cum0[s] = cum[s - 1]
    log_d_t = log_d.T  # (max_duration, n_states)
    alpha = np.empty((n, n_states))
    in_log = np.empty((n, n_states))
    in_log[0] = log_pi
    for t in range(n):
        d_max = min(max_duration, t + 1)
        # Row k corresponds to duration d = k + 1, i.e. start slot t - k.
        starts = slice(t - d_max + 1, t + 1)
        terms = (
            in_log[starts][::-1]
            + log_d_t[:d_max]
            + (cum[t] - cum0[starts][::-1])
        )
        alpha[t] = _lse(terms)
        if t + 1 < n:
            in_log[t + 1] = _lse(alpha[t][:, None] + log_a)
    return alpha, in_log


def _backward_pass(
    obs: np.ndarray,
    log_a: np.ndarray,
    log_d: np.ndarray,
    cum: np.ndarray,
    max_duration: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Duration-vectorized backward recursion.

    Returns ``(beta, eta)``: ``beta[t, j]`` is the log-probability of
    ``obs[t+1..]`` given a segment of ``j`` ends at ``t``; ``eta[s, j]``
    is the log-mass of a segment of ``j`` starting at ``s`` followed by
    the rest of the sequence (``eta[0]`` is unused).  ``eta`` is exactly
    the per-boundary quantity the soft-EM transition posteriors need, so
    the E-step reuses it instead of re-deriving it per boundary.
    """
    n = obs.size
    n_states = log_a.shape[0]
    beta = np.full((n, n_states), -np.inf)
    eta = np.full((n, n_states), -np.inf)
    beta[n - 1] = 0.0
    log_d_t = log_d.T
    for t in range(n - 2, -1, -1):
        d_max = min(max_duration, n - 1 - t)
        ends = slice(t + 1, t + 1 + d_max)  # end slot for d = 1 .. d_max
        terms = log_d_t[:d_max] + (cum[ends] - cum[t]) + beta[ends]
        eta[t + 1] = _lse(terms)
        beta[t] = _lse(log_a.T + eta[t + 1][:, None])
    return beta, eta


class _RaggedBatch:
    """Sequences right-padded into one ``(T_max, B)`` symbol matrix.

    Columns run longest sequence first, so the sequences still running at
    slot ``t`` are always the prefix ``[:active[t]]`` and the columns
    ``[active[t + 1]:active[t]]`` end at ``t``; the padding (symbol 0) is
    never read.  ``order[c]`` is the caller's index of column ``c``.
    """

    def __init__(self, observations: Sequence[np.ndarray]) -> None:
        lengths = np.array([obs.size for obs in observations])
        self.order = np.argsort(-lengths, kind="stable")
        self.lengths = lengths[self.order]
        t_max = int(self.lengths[0])
        self.symbols = np.zeros((t_max, lengths.size), dtype=np.intp)
        for col, idx in enumerate(self.order):
            self.symbols[: self.lengths[col], col] = observations[idx]
        ended = np.cumsum(np.bincount(lengths, minlength=t_max + 1))[:t_max]
        self.active: list[int] = (lengths.size - ended).tolist()


def _rows(ring: np.ndarray, t: int) -> slice:
    """Rows of a slot ring for the segments ending at slot ``t``.

    A ring stores slot ``s`` at rows ``-s % D`` and ``-s % D + D``, so row
    ``q + r`` of the returned slice holds start slot ``t - r``, i.e. the
    segment of duration ``r + 1``.
    """
    depth = len(ring) // 2
    q = -t % depth
    return slice(q, q + min(depth, t + 1))


def _push(ring: np.ndarray, t: int, values: np.ndarray) -> None:
    """Store ``values`` (a running prefix) as slot ``t`` of a ring."""
    depth = len(ring) // 2
    q = -t % depth
    ring[q, : len(values)] = ring[q + depth, : len(values)] = values


def _ring(batch: _RaggedBatch, params: LogParams, first, dtype=float) -> np.ndarray:
    """A ``(2 * D, B, N)`` slot ring holding ``first`` as slot 0."""
    n_states, max_duration = params.log_d.shape
    ring = np.empty((2 * max_duration, len(batch.order), n_states), dtype=dtype)
    _push(ring, 0, np.broadcast_to(first, ring.shape[1:]))
    return ring


def _slot_scores(batch: _RaggedBatch, params: LogParams, entry: np.ndarray):
    """Step the padded batch one slot at a time.

    Yields ``(t, n_next, scores)``: ``scores[r, c, j]`` is the log-score of
    a segment of state ``j`` and duration ``r + 1`` ending at slot ``t`` in
    running column ``c`` (entry mass at its start slot, duration, and the
    emissions as a difference of the running cumulative sum).  Columns
    ``[n_next:]`` end at ``t``.  Before asking for slot ``t + 1`` the
    caller stores its entry masses for the first ``n_next`` columns with
    ``_push(entry, t + 1, ...)``.
    """
    log_b_t = params.log_b.T
    log_d_t = params.log_d.T[:, None, :]
    start_cum = _ring(batch, params, 0.0)  # cum0[s] = cum[s - 1], cum0[0] = 0
    cum = np.zeros(start_cum.shape[1:])
    active = batch.active + [0]
    for t, symbols in enumerate(batch.symbols):
        n, n_next = active[t], active[t + 1]
        cum = cum[:n] + log_b_t[symbols[:n]]
        rows = _rows(entry, t)
        yield t, n_next, (
            entry[rows, :n] + log_d_t[: rows.stop - rows.start]
            + (cum - start_cum[rows, :n])
        )
        _push(start_cum, t + 1, cum[:n_next])


def _forward_batch(batch: _RaggedBatch, params: LogParams) -> np.ndarray:
    """Log-likelihood of every sequence of ``batch``, in the caller's order.

    The forward recursion of :func:`_forward_pass`, stepped for all
    sequences at once; each sequence's ``alpha`` row is kept only at its
    own last slot.
    """
    log_a = params.log_a[:, None, :]
    entry = _ring(batch, params, params.log_pi)
    last = np.empty(entry.shape[1:])
    for t, n_next, scores in _slot_scores(batch, params, entry):
        alpha = _lse(scores)
        last[n_next : len(alpha)] = alpha[n_next:]
        if n_next:
            _push(entry, t + 1, _lse(alpha[:n_next].T[:, :, None] + log_a))
    out = np.empty(len(last))
    out[batch.order] = _logsumexp(last, axis=1)
    return out


def _viterbi_batch(batch: _RaggedBatch, params: LogParams) -> list[list[Segment]]:
    """Viterbi segmentation of every sequence of ``batch``, in the caller's
    order.  The ``argmax`` over durations takes the first maximum, i.e. the
    shortest duration, exactly as the reference; the best scores are the
    matching ``max``, so no gather is needed.
    """
    n_states, max_duration = params.log_d.shape
    # Smallest signed type holding durations 1..D and predecessors -1..N-1.
    index_type = np.min_scalar_type(-1 - max(max_duration, n_states))
    shape = batch.symbols.shape + (n_states,)
    best_dur = np.empty(shape, dtype=index_type)
    entry_arg = np.empty(shape, dtype=index_type)
    entry_arg[0] = -1
    entry = _ring(batch, params, params.log_pi)
    final = np.empty(entry.shape[1:])
    for t, n_next, scores in _slot_scores(batch, params, entry):
        n = scores.shape[1]
        best_dur[t, :n] = scores.argmax(axis=0) + 1
        delta = scores.max(axis=0)
        final[n_next:n] = delta[n_next:]
        if n_next:
            candidates = delta[:n_next, :, None] + params.log_a
            entry_arg[t + 1, :n_next] = candidates.argmax(axis=1)
            _push(entry, t + 1, candidates.max(axis=1))
    segmentations: list = [None] * len(final)
    for col, (idx, length) in enumerate(zip(batch.order, batch.lengths, strict=True)):
        segmentations[idx] = _viterbi_backtrack(
            final[col], best_dur[:length, col], entry_arg[:length, col]
        )
    return segmentations


def _viterbi_backtrack(
    final_delta: np.ndarray, best_dur: np.ndarray, entry_arg: np.ndarray
) -> list[Segment]:
    """Segments of the best path from a sequence's Viterbi tables.

    ``best_dur[t, j]`` is the duration of the best segment of ``j`` ending
    at ``t``; ``entry_arg[s, j]`` the best predecessor of a segment of
    ``j`` starting at ``s`` (``-1`` at ``s = 0``).
    """
    segments: list[Segment] = []
    t = len(best_dur) - 1
    state = int(np.argmax(final_delta))
    while t >= 0:
        d = int(best_dur[t, state])
        if d <= 0:
            raise ModelError("Viterbi backtrack failed (zero duration)")
        start = t - d + 1
        segments.append(Segment(state=state, start=start, end=t))
        state = int(entry_arg[start, state])
        t = start - 1
    segments.reverse()
    return segments


class HiddenSemiMarkovModel:
    """Explicit-duration HSMM over a discrete observation alphabet.

    Parameters
    ----------
    n_states:
        Number of hidden states.
    n_symbols:
        Observation alphabet size.
    max_duration:
        Longest representable state duration (in time slots).
    duration_factory:
        Callable producing a fresh duration distribution per state;
        defaults to nonparametric :class:`EmpiricalDuration`.
    rng:
        Generator for random initialization and sampling.
    """

    def __init__(
        self,
        n_states: int,
        n_symbols: int,
        max_duration: int = 10,
        duration_factory: Callable[[int], DiscreteDuration] | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if n_states < 1 or n_symbols < 1:
            raise ModelError("need at least one state and one symbol")
        self.n_states = int(n_states)
        self.n_symbols = int(n_symbols)
        self.max_duration = int(max_duration)
        rng = ensure_rng(rng, default_seed=0)
        factory = duration_factory or _default_duration_factory
        self._duration_factory = factory
        self.initial = np.full(n_states, 1.0 / n_states)
        transition = rng.random((n_states, n_states)) + 0.5
        if n_states > 1:
            np.fill_diagonal(transition, 0.0)
        self.transition = _normalize_rows(transition)
        self.emission = _normalize_rows(rng.random((n_states, n_symbols)) + 0.5)
        self.durations: list[DiscreteDuration] = [
            factory(self.max_duration) for _ in range(n_states)
        ]
        self._fitted = False
        self._params_cache: LogParams | None = None
        self._params_fingerprint: bytes | None = None
        self._params_version = 0

    # ------------------------------------------------------------------
    # Log-space helpers
    # ------------------------------------------------------------------

    def _check_sequence(self, sequence: Sequence[int]) -> np.ndarray:
        obs = np.asarray(sequence, dtype=int)
        if obs.ndim != 1 or obs.size == 0:
            raise ModelError("sequence must be a non-empty 1-D array of symbols")
        if obs.min() < 0 or obs.max() >= self.n_symbols:
            raise ModelError("sequence contains symbols outside the alphabet")
        return obs

    @property
    def params_version(self) -> int:
        """Monotone counter, bumped whenever ``_log_params`` recomputes."""
        return self._params_version

    def _fingerprint(self) -> bytes:
        """Cheap content fingerprint of all parameters.

        Detects both reassignment and in-place mutation of the parameter
        arrays (the arrays are tiny, so hashing their bytes costs far less
        than one table build).
        """
        parts = [
            np.ascontiguousarray(self.initial).tobytes(),
            np.ascontiguousarray(self.transition).tobytes(),
            np.ascontiguousarray(self.emission).tobytes(),
        ]
        parts.extend(
            np.ascontiguousarray(dist.pmf()).tobytes() for dist in self.durations
        )
        return b"\x00".join(parts)

    def _log_params(self) -> LogParams:
        """Log-space parameters, recomputed only when parameters changed."""
        fingerprint = self._fingerprint()
        if self._params_cache is None or fingerprint != self._params_fingerprint:
            self._params_cache = LogParams(
                log_pi=np.log(self.initial + _EPS),
                log_a=np.log(self.transition + _EPS),
                log_b=np.log(self.emission + _EPS),
                log_d=np.log(
                    np.vstack([dist.pmf() for dist in self.durations]) + _EPS
                ),
            )
            self._params_fingerprint = fingerprint
            self._params_version += 1
        return self._params_cache

    def _segment_emissions(self, obs: np.ndarray, log_b: np.ndarray) -> np.ndarray:
        """Cumulative per-state emission log-probs.

        ``cum[t, j]`` is the log-probability that state ``j`` emitted
        ``obs[0..t]``; segment scores are differences of this array.
        """
        step = log_b[:, obs].T  # (T, n_states)
        return np.cumsum(step, axis=0)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def log_likelihood(self, sequence: Sequence[int]) -> float:
        """Log-probability that the model generated ``sequence``.

        A segment boundary is assumed at the end of the sequence (the
        standard right-boundary convention for segment models).  Scored as
        a batch of one, so it equals the sequence's entry of
        :meth:`log_likelihood_batch` exactly.
        """
        return float(self._log_likelihoods([self._check_sequence(sequence)])[0])

    def log_likelihood_batch(self, sequences: Sequence[Sequence[int]]) -> np.ndarray:
        """Log-likelihood of every sequence, scored in one padded pass.

        The log-parameters are built once and the forward recursion steps
        once per time slot for the whole right-padded batch (see the module
        docstring); each score is bit-identical to scoring its sequence
        alone.
        """
        observations = [self._check_sequence(seq) for seq in sequences]
        if not observations:
            return np.empty(0)
        return self._log_likelihoods(observations)

    def _log_likelihoods(self, observations: list[np.ndarray]) -> np.ndarray:
        return _forward_batch(_RaggedBatch(observations), self._log_params())

    def viterbi(self, sequence: Sequence[int]) -> list[Segment]:
        """Most likely segmentation of ``sequence`` into state runs."""
        obs = self._check_sequence(sequence)
        return self._segmentations([obs], self._log_params())[0]

    def _segmentations(
        self, observations: list[np.ndarray], params: LogParams
    ) -> list[list[Segment]]:
        """Viterbi segmentation of every sequence (one padded pass)."""
        return _viterbi_batch(_RaggedBatch(observations), params)

    # ------------------------------------------------------------------
    # Training (segmental hard-EM)
    # ------------------------------------------------------------------

    def fit(
        self,
        sequences: Sequence[Sequence[int]],
        max_iter: int = 20,
        tol: float = 1e-4,
        pseudocount: float = 0.05,
        n_restarts: int = 1,
        restart_rng: np.random.Generator | None = None,
        algorithm: str = "hard",
    ) -> list[float]:
        """Train the model; returns the per-iteration score trace.

        ``algorithm="hard"`` runs segmental hard-EM (Viterbi
        re-estimation; the trace is the total Viterbi-path score);
        ``algorithm="soft"`` runs full Baum-Welch over segment posteriors
        (the trace is the true total log-likelihood, non-decreasing).
        Both converge to local optima, so ``n_restarts > 1`` re-randomizes
        the parameters and keeps the best-scoring solution.  Every restart
        draws its randomization from the one ``restart_rng`` stream, in
        order, so a fixed rng always picks the same winner.
        """
        if algorithm not in ("hard", "soft"):
            raise ModelError(f"unknown algorithm {algorithm!r}")
        if n_restarts < 1:
            raise ModelError("n_restarts must be >= 1")
        if n_restarts > 1:
            rng = ensure_rng(restart_rng, default_seed=0)
            best_score = -np.inf
            best_state: tuple | None = None
            best_trace: list[float] = []
            for _ in range(n_restarts):
                self._randomize(rng)
                trace = self.fit(
                    sequences, max_iter=max_iter, tol=tol,
                    pseudocount=pseudocount, n_restarts=1,
                    algorithm=algorithm,
                )
                if trace[-1] > best_score:
                    best_score = trace[-1]
                    best_trace = trace
                    best_state = (
                        self.initial.copy(),
                        self.transition.copy(),
                        self.emission.copy(),
                        copy.deepcopy(self.durations),
                    )
            assert best_state is not None
            self.initial, self.transition, self.emission, self.durations = best_state
            self._fitted = True
            return best_trace

        observations = [self._check_sequence(seq) for seq in sequences]
        if not observations:
            raise ModelError("need at least one training sequence")
        if algorithm == "soft":
            return self._fit_soft(observations, max_iter, tol, pseudocount)
        return self._fit_hard(observations, max_iter, tol, pseudocount)

    def _fit_hard(
        self,
        observations: list[np.ndarray],
        max_iter: int,
        tol: float,
        pseudocount: float,
    ) -> list[float]:
        trace: list[float] = []
        for _ in range(max_iter):
            init_acc = np.zeros(self.n_states)
            trans_acc = np.zeros((self.n_states, self.n_states))
            emit_acc = np.zeros((self.n_states, self.n_symbols))
            dur_acc = np.zeros((self.n_states, self.max_duration))
            total_score = 0.0
            params = self._log_params()
            segmentations = self._segmentations(observations, params)
            for obs, segments in zip(observations, segmentations, strict=True):
                total_score += self._segmentation_score(obs, segments, params)
                init_acc[segments[0].state] += 1.0
                for prev, cur in zip(segments, segments[1:], strict=False):
                    trans_acc[prev.state, cur.state] += 1.0
                state_of_slot = np.empty(obs.size, dtype=int)
                for seg in segments:
                    dur_acc[seg.state, seg.duration - 1] += 1.0
                    state_of_slot[seg.start : seg.end + 1] = seg.state
                np.add.at(emit_acc, (state_of_slot, obs), 1.0)
            self.initial = (init_acc + pseudocount) / (
                init_acc.sum() + pseudocount * self.n_states
            )
            trans = trans_acc + pseudocount
            if self.n_states > 1:
                np.fill_diagonal(trans, 0.0)
            self.transition = _normalize_rows(trans)
            self.emission = _normalize_rows(emit_acc + pseudocount)
            for j, dist in enumerate(self.durations):
                dist.fit(dur_acc[j])
            trace.append(total_score)
            if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= tol * (
                abs(trace[-2]) + _EPS
            ):
                break
        self._fitted = True
        return trace

    def _fit_soft(
        self,
        observations: list[np.ndarray],
        max_iter: int,
        tol: float,
        pseudocount: float,
    ) -> list[float]:
        """Full Baum-Welch for the explicit-duration HSMM.

        The E-step enumerates candidate segments ``(state j, start s,
        duration d)`` and weighs each by its posterior probability::

            w(j, s, d) = P(segment | obs)
                       = in(s, j) * p_j(d) * emis(s..s+d-1, j) * beta[s+d-1, j] / L

        where ``in(s, j)`` is the probability mass of entering state ``j``
        at slot ``s`` (initial law at s=0, alpha-weighted transitions
        otherwise).  All segment statistics (durations, emissions,
        transitions, initial law) are the corresponding weighted sums.
        """
        trace: list[float] = []
        for _ in range(max_iter):
            init_acc = np.full(self.n_states, pseudocount)
            trans_acc = np.full((self.n_states, self.n_states), pseudocount)
            if self.n_states > 1:
                np.fill_diagonal(trans_acc, 0.0)
            emit_acc = np.full((self.n_states, self.n_symbols), pseudocount)
            dur_acc = np.full((self.n_states, self.max_duration), pseudocount)
            total_ll = 0.0
            params = self._log_params()
            accumulators = (init_acc, trans_acc, emit_acc, dur_acc)
            for obs in observations:
                total_ll += self._soft_estep(obs, params, accumulators)
            # M-step.
            self.initial = init_acc / init_acc.sum()
            if self.n_states > 1:
                np.fill_diagonal(trans_acc, 0.0)
            self.transition = _normalize_rows(trans_acc)
            self.emission = _normalize_rows(emit_acc)
            for j, dist in enumerate(self.durations):
                dist.fit(dur_acc[j])
            trace.append(total_ll)
            if len(trace) >= 2 and abs(trace[-1] - trace[-2]) <= tol * (
                abs(trace[-2]) + _EPS
            ):
                break
        self._fitted = True
        return trace

    def _soft_estep(
        self, obs: np.ndarray, params: LogParams, accumulators: tuple
    ) -> float:
        """Duration-major E-step in ``O(T * D * N)``.

        Instead of walking the symbols of every candidate segment
        (``O(T^2 * D * N)`` overall), per-slot posterior occupancy is
        accumulated as a difference array -- segment ``(s, d)`` adds its
        weight at row ``s`` and subtracts it at row ``s + d`` -- whose
        cumulative sum yields the per-slot mass; one scatter-add then
        projects it onto the observed symbols (the cumulative one-hot
        count trick, transposed).
        """
        init_acc, trans_acc, emit_acc, dur_acc = accumulators
        log_pi, log_a, log_b, log_d = params
        n = obs.size
        n_states = self.n_states
        cum = self._segment_emissions(obs, log_b)
        alpha, in_log = _forward_pass(
            obs, log_pi, log_a, log_d, cum, self.max_duration
        )
        beta, eta = _backward_pass(obs, log_a, log_d, cum, self.max_duration)
        log_likelihood = float(_logsumexp(alpha[-1]))
        cum0 = np.vstack([np.zeros((1, n_states)), cum])
        log_d_t = log_d.T
        pos_diff = np.zeros((n + 1, n_states))
        for d in range(1, min(self.max_duration, n) + 1):
            s_count = n - d + 1  # admissible starts: 0 .. n - d
            ends = np.arange(d - 1, n)
            log_w = (
                in_log[:s_count]
                + log_d_t[d - 1]
                + (cum[ends] - cum0[:s_count])
                + beta[ends]
                - log_likelihood
            )
            w = np.exp(np.clip(log_w, -700.0, 50.0))
            dur_acc[:, d - 1] += w.sum(axis=0)
            init_acc += w[0]
            pos_diff[:s_count] += w
            pos_diff[d:] -= w
        per_slot = np.cumsum(pos_diff[:n], axis=0)  # (T, n_states)
        per_symbol = np.zeros((self.n_symbols, n_states))
        np.add.at(per_symbol, obs, per_slot)
        emit_acc += per_symbol.T
        if n > 1:
            # Transition posteriors at each boundary t -> t+1; eta[t+1] is
            # the per-boundary entry mass already computed by the backward
            # pass.
            log_xi = (
                alpha[:-1, :, None]
                + log_a[None, :, :]
                + eta[1:, None, :]
                - log_likelihood
            )
            trans_acc += np.exp(np.clip(log_xi, -700.0, 50.0)).sum(axis=0)
        return log_likelihood

    def _randomize(self, rng: np.random.Generator) -> None:
        """Re-randomize all parameters (used between EM restarts).

        Emissions are drawn sharply (Dirichlet with small concentration)
        so restarts explore genuinely different state/symbol assignments,
        and durations are reset to fresh factory instances -- otherwise all
        restarts inherit the previous run's duration model and land in the
        same basin.
        """
        self.initial = np.full(self.n_states, 1.0 / self.n_states)
        transition = rng.random((self.n_states, self.n_states)) + 0.5
        if self.n_states > 1:
            np.fill_diagonal(transition, 0.0)
        self.transition = _normalize_rows(transition)
        self.emission = rng.dirichlet(
            np.full(self.n_symbols, 0.5), size=self.n_states
        )
        self.durations = [
            self._duration_factory(self.max_duration) for _ in range(self.n_states)
        ]

    def _segmentation_score(
        self,
        obs: np.ndarray,
        segments: list[Segment],
        params: LogParams | None = None,
    ) -> float:
        if params is None:
            params = self._log_params()
        log_pi, log_a, log_b, log_d = params
        score = log_pi[segments[0].state]
        for prev, cur in zip(segments, segments[1:], strict=False):
            score += log_a[prev.state, cur.state]
        for seg in segments:
            score += log_d[seg.state, seg.duration - 1]
            score += log_b[seg.state, obs[seg.start : seg.end + 1]].sum()
        return float(score)

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def require_fitted(self) -> None:
        """Raise :class:`NotFittedError` if :meth:`fit` has not run."""
        if not self._fitted:
            raise NotFittedError("HSMM has not been fitted")

    def clone(self) -> "HiddenSemiMarkovModel":
        """Deep copy (useful for restarts and model comparison)."""
        return copy.deepcopy(self)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------

    def sample(
        self, length: int, rng: np.random.Generator
    ) -> tuple[list[int], list[int]]:
        """Sample ``(states_per_slot, observations)`` of exactly ``length``.

        Consumes exactly the draws needed for the returned slots: the
        transition out of the final (possibly truncated) segment is never
        drawn, so back-to-back sampling from one generator is reproducible.
        """
        if length < 1:
            raise ModelError("length must be >= 1")
        states: list[int] = []
        observations: list[int] = []
        state = int(rng.choice(self.n_states, p=self.initial))
        while True:
            duration = self.durations[state].sample(rng)
            for _ in range(duration):
                states.append(state)
                observations.append(
                    int(rng.choice(self.n_symbols, p=self.emission[state]))
                )
                if len(observations) >= length:
                    return states, observations
            state = int(rng.choice(self.n_states, p=self.transition[state]))

    def __repr__(self) -> str:
        return (
            f"HiddenSemiMarkovModel(n_states={self.n_states}, "
            f"n_symbols={self.n_symbols}, max_duration={self.max_duration})"
        )
