"""Predictor fallback: keep Evaluate alive when the primary model faults.

Aupy et al. (PAPERS.md) show prediction-driven policies must remain
correct when the predictor itself is unreliable; the practical corollary
is that a controller whose only predictor raises exceptions degrades to
"no PFM".  :class:`FallbackPredictor` pairs the trained primary with a
cheaper secondary (typically a :mod:`repro.prediction.baselines` model)
behind a circuit breaker: repeated primary faults switch scoring to the
secondary, and after a cooldown the primary is probed again.  A primary
that declares a simulated latency beyond ``latency_budget`` (the
controller passes its lead time) is a fault too: this is the Evaluate
step's one latency guard, since a prediction that arrives after the
failure it predicts is worthless.

Each predictor keeps its *own* threshold -- scores from different model
families are not on a common scale, so the warning decision is always
made against the threshold of the model that produced the score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.resilience.policies import BreakerState, CircuitBreaker
from repro.telemetry import events as tel_events
from repro.telemetry.hub import NULL_HUB, TelemetryHub


@dataclass(frozen=True)
class ScoreResult:
    """One scoring decision, tagged with the model that produced it."""

    score: float
    warning: bool
    source: str  # "primary" | "secondary" | "none"


#: The inert result when neither model produced a usable score.
_NO_SCORE = ScoreResult(score=float("nan"), warning=False, source="none")


class FallbackPredictor:
    """Primary/secondary symptom-predictor pair with automatic failover.

    Parameters
    ----------
    primary:
        The trained production predictor (duck-typed: needs
        ``score_samples`` and ``threshold``).
    secondary:
        The fallback model, already fitted and threshold-calibrated.
        ``None`` means "no fallback": primary faults yield a null score
        with ``warning=False`` (inert, but alive).
    clock:
        Zero-argument callable returning the current simulated time.
    failure_threshold / cooldown:
        Circuit-breaker parameters for the primary (see
        :class:`~repro.resilience.policies.CircuitBreaker`).
    latency_budget:
        Optional simulated-seconds budget: a primary declaring
        ``simulated_latency`` above it counts as a fault (a prediction
        slower than the lead time is useless).
    telemetry:
        Telemetry hub receiving ``evaluate.score`` spans, predictor-fault
        events and the primary breaker's transitions (disabled default).
    """

    def __init__(
        self,
        primary,
        secondary=None,
        clock: Callable[[], float] = lambda: 0.0,
        failure_threshold: int = 3,
        cooldown: float = 1_800.0,
        latency_budget: float | None = None,
        telemetry: TelemetryHub = NULL_HUB,
    ) -> None:
        self.primary = primary
        self.secondary = secondary
        self.clock = clock
        self.latency_budget = latency_budget
        self.telemetry = telemetry
        self.breaker = CircuitBreaker(
            name="primary-predictor",
            failure_threshold=failure_threshold,
            cooldown=cooldown,
            on_transition=self._breaker_transition,
        )
        self.primary_faults = 0
        self.secondary_scores = 0
        self.null_scores = 0

    def _breaker_transition(
        self, name: str, old: str, new: str, now: float
    ) -> None:
        self.telemetry.emit(
            tel_events.BREAKER_TRANSITION, breaker=name, from_state=old, to=new
        )
        self.telemetry.counter(
            "breaker_transitions_total", breaker=name, to=new
        ).inc()

    def _record_fault(self, now: float, reason: str) -> None:
        self.primary_faults += 1
        self.breaker.record_failure(now)
        self.telemetry.emit(tel_events.PREDICTOR_FAULT, reason=reason)
        self.telemetry.counter("predictor_faults_total", reason=reason).inc()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def score(self, observation: np.ndarray) -> ScoreResult:
        """Score one observation vector, failing over as needed."""
        now = self.clock()
        with self.telemetry.span("evaluate.score") as span:
            result = None
            if self.breaker.allow(now):
                result = self._try_primary(observation, now)
            if result is None:
                result = self._secondary_score(observation)
            span.annotate(source=result.source)
            self.telemetry.counter(
                "predictor_scores_total", source=result.source
            ).inc()
            return result

    def _try_primary(self, observation: np.ndarray, now: float) -> ScoreResult | None:
        latency = float(getattr(self.primary, "simulated_latency", 0.0) or 0.0)
        if self.latency_budget is not None and latency > self.latency_budget:
            self._record_fault(now, "latency")
            return None
        try:
            score = float(self.primary.score_samples(observation[None, :])[0])
        except Exception:
            self._record_fault(now, "exception")
            return None
        if not math.isfinite(score):
            self._record_fault(now, "non-finite")
            return None
        self.breaker.record_success(now)
        return ScoreResult(
            score=score,
            warning=score >= self.primary.threshold,
            source="primary",
        )

    def _secondary_score(self, observation: np.ndarray) -> ScoreResult:
        if self.secondary is None:
            self.null_scores += 1
            return _NO_SCORE
        try:
            score = float(self.secondary.score_samples(observation[None, :])[0])
        except Exception:
            self.null_scores += 1
            return _NO_SCORE
        if not math.isfinite(score):
            self.null_scores += 1
            return _NO_SCORE
        self.secondary_scores += 1
        return ScoreResult(
            score=score,
            warning=score >= self.secondary.threshold,
            source="secondary",
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def using_fallback(self) -> bool:
        """True while the primary's breaker is open."""
        return self.breaker.state is BreakerState.OPEN

    @property
    def threshold(self) -> float:
        """The active model's threshold (primary unless its breaker is open)."""
        if self.using_fallback and self.secondary is not None:
            return self.secondary.threshold
        return self.primary.threshold
