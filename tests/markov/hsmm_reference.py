"""The HSMM loop oracle: the original per-duration inference loops.

:class:`ReferenceHSMM` is a :class:`~repro.markov.hsmm.HiddenSemiMarkovModel`
whose scoring, Viterbi segmentation and soft-EM E-step run the original
Python loops instead of the batched, duration-vectorized kernels in
``repro.markov.hsmm``.  The loop bodies are kept verbatim; the
equivalence tests, the HSMM property tests, the predictor agreement test
and ``benchmarks/test_bench_hsmm_speed.py`` compare the library against
them.
"""

import numpy as np
from scipy.special import logsumexp

from repro.markov.hsmm import (
    HiddenSemiMarkovModel,
    LogParams,
    Segment,
    _viterbi_backtrack,
)


class ReferenceHSMM(HiddenSemiMarkovModel):
    """An HSMM that runs the per-duration loops (the correctness oracle)."""

    def _log_likelihoods(self, observations: list[np.ndarray]) -> np.ndarray:
        params = self._log_params()
        return np.array([
            logsumexp(self._forward_reference(
                obs, params, self._segment_emissions(obs, params.log_b)
            )[-1])
            for obs in observations
        ])

    def _segmentations(
        self, observations: list[np.ndarray], params: LogParams
    ) -> list[list[Segment]]:
        return [
            self._viterbi_reference(
                obs, params, self._segment_emissions(obs, params.log_b)
            )
            for obs in observations
        ]

    def _soft_estep(
        self, obs: np.ndarray, params: LogParams, accumulators: tuple
    ) -> float:
        return self._soft_estep_reference(obs, params, accumulators)

    def _forward_reference(
        self, obs: np.ndarray, params: LogParams, cum: np.ndarray
    ) -> np.ndarray:
        """Original per-duration forward loop (correctness oracle)."""
        log_pi, log_a, _, log_d = params
        n = obs.size
        alpha = np.full((n, self.n_states), -np.inf)
        for t in range(n):
            d_max = min(self.max_duration, t + 1)
            # Contributions for each admissible duration d (vectorized over states).
            terms = np.full((d_max, self.n_states), -np.inf)
            for d in range(1, d_max + 1):
                start = t - d + 1
                emis = cum[t] - (cum[start - 1] if start > 0 else 0.0)
                dur = log_d[:, d - 1]
                if start == 0:
                    terms[d - 1] = log_pi + dur + emis
                else:
                    prev = logsumexp(
                        alpha[start - 1][:, None] + log_a, axis=0
                    )  # (n_states,)
                    terms[d - 1] = prev + dur + emis
            alpha[t] = logsumexp(terms, axis=0)
        return alpha

    def _backward_reference(
        self, obs: np.ndarray, params: LogParams, cum: np.ndarray
    ) -> np.ndarray:
        """Original per-duration backward loop (correctness oracle)."""
        _, log_a, _, log_d = params
        n = obs.size
        beta = np.full((n, self.n_states), -np.inf)
        beta[n - 1] = 0.0
        for t in range(n - 2, -1, -1):
            # eta[j'] = log P(a segment of j' starts at t+1 and the rest
            # of the sequence follows).
            d_max = min(self.max_duration, n - 1 - t)
            terms = np.full((d_max, self.n_states), -np.inf)
            for d in range(1, d_max + 1):
                end = t + d
                emis = cum[end] - cum[t]
                terms[d - 1] = log_d[:, d - 1] + emis + beta[end]
            eta = logsumexp(terms, axis=0)  # (n_states,)
            beta[t] = logsumexp(log_a + eta[None, :], axis=1)
        return beta

    def _viterbi_reference(
        self, obs: np.ndarray, params: LogParams, cum: np.ndarray
    ) -> list[Segment]:
        """Original per-duration Viterbi loop (correctness oracle)."""
        log_pi, log_a, _, log_d = params
        n = obs.size
        delta = np.full((n, self.n_states), -np.inf)
        best_dur = np.zeros((n, self.n_states), dtype=int)
        entry_arg = np.full((n, self.n_states), -1, dtype=int)
        for t in range(n):
            d_max = min(self.max_duration, t + 1)
            for d in range(1, d_max + 1):
                start = t - d + 1
                emis = cum[t] - (cum[start - 1] if start > 0 else 0.0)
                dur = log_d[:, d - 1]
                if start == 0:
                    scores = log_pi + dur + emis
                else:
                    candidates = delta[start - 1][:, None] + log_a
                    entry_arg[start] = np.argmax(candidates, axis=0)
                    scores = (
                        candidates[entry_arg[start], np.arange(self.n_states)]
                        + dur
                        + emis
                    )
                better = scores > delta[t]
                delta[t][better] = scores[better]
                best_dur[t][better] = d
        return _viterbi_backtrack(delta[-1], best_dur, entry_arg)

    def _soft_estep_reference(
        self, obs: np.ndarray, params: LogParams, accumulators: tuple
    ) -> float:
        """Original segment-major E-step loops (correctness oracle)."""
        init_acc, trans_acc, emit_acc, dur_acc = accumulators
        log_pi, log_a, log_b, log_d = params
        n = obs.size
        cum = self._segment_emissions(obs, log_b)
        alpha = self._forward_reference(obs, params, cum)
        beta = self._backward_reference(obs, params, cum)
        log_likelihood = float(logsumexp(alpha[-1]))
        # in_log[s, j]: log-mass of entering state j at slot s.
        in_log = np.full((n, self.n_states), -np.inf)
        in_log[0] = log_pi
        for s in range(1, n):
            in_log[s] = logsumexp(alpha[s - 1][:, None] + log_a, axis=0)
        # Segment posteriors.
        for s in range(n):
            d_max = min(self.max_duration, n - s)
            for d in range(1, d_max + 1):
                end = s + d - 1
                emis = cum[end] - (cum[s - 1] if s > 0 else 0.0)
                log_w = (
                    in_log[s]
                    + log_d[:, d - 1]
                    + emis
                    + beta[end]
                    - log_likelihood
                )
                w = np.exp(np.clip(log_w, -700.0, 50.0))
                if not w.any():
                    continue
                dur_acc[:, d - 1] += w
                if s == 0:
                    init_acc += w
                for symbol in obs[s : end + 1]:
                    emit_acc[:, symbol] += w
        # Transition posteriors at each boundary t -> t+1.
        for t in range(n - 1):
            # eta[j'] = log P(segment of j' starts at t+1, rest follows).
            d_max = min(self.max_duration, n - 1 - t)
            terms = np.full((d_max, self.n_states), -np.inf)
            for d in range(1, d_max + 1):
                end = t + d
                terms[d - 1] = (
                    log_d[:, d - 1] + (cum[end] - cum[t]) + beta[end]
                )
            eta = logsumexp(terms, axis=0)
            log_xi = (
                alpha[t][:, None] + log_a + eta[None, :] - log_likelihood
            )
            trans_acc += np.exp(np.clip(log_xi, -700.0, 50.0))
        return log_likelihood


def reference_twin(model: HiddenSemiMarkovModel) -> ReferenceHSMM:
    """A deep copy of ``model`` that runs the loop oracle."""
    twin = model.clone()
    twin.__class__ = ReferenceHSMM
    return twin
