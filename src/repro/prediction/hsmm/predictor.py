"""The two-model HSMM failure predictor (paper Sect. 3.2, Fig. 6).

"Two HSMMs are trained: One for failure sequences and the other for
non-failure sequences. ... sequence likelihood ... is computed for both
HSMM models and Bayes decision theory is applied in order to yield a
classification."

The failure-proneness score is the length-normalized log-likelihood ratio
plus the class log-prior ratio; thresholding the score at 0 is exactly the
Bayes decision, and sweeping the threshold yields the ROC the case study
reports.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.errors import ConfigurationError
from repro.markov.distributions import GeometricDuration
from repro.markov.hsmm import HiddenSemiMarkovModel
from repro.monitoring.records import EventSequence
from repro.prediction.base import EventPredictor, PredictorInfo
from repro.prediction.hsmm.sequences import SequenceEncoder
from repro.telemetry.hub import NULL_HUB, TelemetryHub


class HSMMPredictor(EventPredictor):
    """Event-based failure predictor using two hidden semi-Markov models."""

    info = PredictorInfo(
        name="HSMM",
        category="detected-error-reporting/pattern-recognition",
        description="Two-model hidden semi-Markov sequence classification",
    )

    def __init__(
        self,
        n_states_failure: int = 6,
        n_states_nonfailure: int = 4,
        max_duration: int = 8,
        encoder: SequenceEncoder | None = None,
        duration_factory=None,
        max_iter: int = 12,
        seed: int = 0,
        algorithm: str = "hard",
        strategy: str = "vectorized",
        telemetry: TelemetryHub = NULL_HUB,
    ) -> None:
        super().__init__()
        if n_states_failure < 1 or n_states_nonfailure < 1:
            raise ConfigurationError("need at least one state per model")
        if algorithm not in ("hard", "soft"):
            raise ConfigurationError(f"unknown training algorithm {algorithm!r}")
        if strategy not in ("vectorized", "reference"):
            raise ConfigurationError(f"unknown inference strategy {strategy!r}")
        self.n_states_failure = n_states_failure
        self.n_states_nonfailure = n_states_nonfailure
        self.max_duration = max_duration
        self.encoder = encoder or SequenceEncoder()
        self.duration_factory = duration_factory
        self.max_iter = max_iter
        self.seed = seed
        self.algorithm = algorithm
        self.strategy = strategy
        #: Profiling hub: scoring runs inside ``hsmm.score`` /
        #: ``hsmm.score_batch`` spans so the wall-vs-sim profile keeps the
        #: vectorized hot path measurable in-situ.  Assignable after
        #: construction (the controller/scorer wires it at run time).
        self.telemetry = telemetry
        self.threshold = 0.0  # Bayes decision boundary
        self.failure_model: HiddenSemiMarkovModel | None = None
        self.nonfailure_model: HiddenSemiMarkovModel | None = None
        self.log_prior_ratio = 0.0

    def fit_sequences(
        self,
        failure_sequences: list[EventSequence],
        nonfailure_sequences: list[EventSequence],
    ) -> "HSMMPredictor":
        if not failure_sequences or not nonfailure_sequences:
            raise ConfigurationError("need training sequences of both classes")
        self.encoder.fit(failure_sequences + nonfailure_sequences)
        n_symbols = self.encoder.n_symbols
        self.failure_model = HiddenSemiMarkovModel(
            self.n_states_failure,
            n_symbols,
            max_duration=self.max_duration,
            duration_factory=self.duration_factory,
            rng=np.random.default_rng(self.seed),
            strategy=self.strategy,
        )
        self.nonfailure_model = HiddenSemiMarkovModel(
            self.n_states_nonfailure,
            n_symbols,
            max_duration=self.max_duration,
            duration_factory=self.duration_factory,
            rng=np.random.default_rng(self.seed + 1),
            strategy=self.strategy,
        )
        self.failure_model.fit(
            self.encoder.encode_many(failure_sequences),
            max_iter=self.max_iter,
            algorithm=self.algorithm,
        )
        self.nonfailure_model.fit(
            self.encoder.encode_many(nonfailure_sequences),
            max_iter=self.max_iter,
            algorithm=self.algorithm,
        )
        n_f, n_n = len(failure_sequences), len(nonfailure_sequences)
        self.log_prior_ratio = math.log(n_f / (n_f + n_n)) - math.log(
            n_n / (n_f + n_n)
        )
        self._fitted = True
        return self

    def score_sequence(self, sequence: EventSequence) -> float:
        """Length-normalized log-likelihood ratio + prior log-ratio.

        Positive scores mean "more similar to failure sequences"; the
        Bayes decision warns at score >= 0.
        """
        self._require_fitted()
        with self.telemetry.span("hsmm.score", strategy=self.strategy):
            symbols = self.encoder.encode(sequence)
            ll_failure = self.failure_model.log_likelihood(symbols)
            ll_nonfailure = self.nonfailure_model.log_likelihood(symbols)
            return (
                ll_failure - ll_nonfailure
            ) / len(symbols) + self.log_prior_ratio

    def score_sequences(self, sequences: list[EventSequence]) -> np.ndarray:
        """Batched scores: encode once, score both models over the batch.

        Each model scores the whole batch in one padded forward pass (one
        log-parameter build, one step per time slot for all sequences), so
        a batch costs far less than a loop of :meth:`score_sequence` calls
        and returns the same scores.  The online scorer and the evaluation
        harness call this in their hot loops.
        """
        self._require_fitted()
        if not sequences:
            return np.empty(0)
        with self.telemetry.span(
            "hsmm.score_batch", sequences=len(sequences), strategy=self.strategy
        ):
            encoded = self.encoder.encode_many(sequences)
            ll_failure = self.failure_model.log_likelihood_batch(encoded)
            ll_nonfailure = self.nonfailure_model.log_likelihood_batch(encoded)
            lengths = np.array([len(symbols) for symbols in encoded], dtype=float)
            return (ll_failure - ll_nonfailure) / lengths + self.log_prior_ratio

    def sequence_likelihoods(self, sequence: EventSequence) -> tuple[float, float]:
        """Raw ``(log P(seq | failure), log P(seq | non-failure))``."""
        self._require_fitted()
        symbols = self.encoder.encode(sequence)
        return (
            self.failure_model.log_likelihood(symbols),
            self.nonfailure_model.log_likelihood(symbols),
        )


def hmm_ablation_predictor(
    n_states_failure: int = 6,
    n_states_nonfailure: int = 4,
    seed: int = 0,
    max_iter: int = 12,
) -> HSMMPredictor:
    """HSMM predictor with geometric durations -- i.e. a plain HMM.

    Geometric state durations are exactly what an HMM's self-loops imply,
    so this is the duration-model ablation (bench A3): same pipeline,
    no semi-Markov timing.
    """
    return HSMMPredictor(
        n_states_failure=n_states_failure,
        n_states_nonfailure=n_states_nonfailure,
        max_duration=8,
        # functools.partial (not a lambda) keeps the predictor picklable, so
        # the fleet's artifact store can persist it and ship it to workers.
        duration_factory=functools.partial(GeometricDuration, p=0.5),
        max_iter=max_iter,
        seed=seed,
    )
