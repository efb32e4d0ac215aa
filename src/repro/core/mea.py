"""The Monitor-Evaluate-Act cycle (paper Sect. 2, Fig. 1).

"The following three steps are continuously repeated during system
runtime": monitor the system, evaluate whether the current state is
failure-prone, and act on imminent failures.  The engine here is generic:
it takes a monitor callable, an evaluator callable and an actor callable
and repeats them as a periodic simulation loop, recording every iteration.

The cycle is hardened against its own steps: an exception in monitor,
evaluate or act is caught into a structured :class:`StepFailure` record
(optionally retried per a :class:`~repro.resilience.policies.RetryPolicy`)
instead of ending the cycle.  A fully-failed iteration
delays the next one by the policy's exponential backoff -- the cycle
slows down under sustained trouble but never dies silently.  A slow
prediction is not the cycle's concern: the controller's
:class:`~repro.resilience.fallback.FallbackPredictor` counts a primary
slower than the lead time as a fault.

The cycle is also self-observing: every iteration emits an ``mea.cycle``
span with child spans per executed step (status ``error`` on failure),
plus ``mea.step_failure`` and ``resilience.retry`` events, through the
:mod:`repro.telemetry` hub it was built with.  The default
:data:`~repro.telemetry.hub.NULL_HUB` keeps all of it no-op.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.resilience.policies import RetryPolicy
from repro.simulator.engine import Engine
from repro.simulator.events import Wakeup
from repro.telemetry import events as tel_events
from repro.telemetry.hub import NULL_HUB, TelemetryHub


@dataclass(frozen=True)
class EvaluationResult:
    """Outcome of one Evaluate step."""

    score: float
    warning: bool
    confidence: float = 0.0
    target: str = ""


#: Placeholder evaluation used when the Evaluate step itself failed.
NULL_EVALUATION = EvaluationResult(score=math.nan, warning=False)


@dataclass(frozen=True)
class StepFailure:
    """A caught failure of one MEA step (the cycle survived it)."""

    time: float
    step: str  # "monitor" | "evaluate" | "act"
    error_type: str  # exception class name
    message: str
    attempts: int = 1  # how many tries were made this iteration


@dataclass
class MEARecord:
    """One full cycle iteration."""

    time: float
    observation: Any
    evaluation: EvaluationResult
    action_taken: str | None
    failed_steps: tuple[str, ...] = ()


@dataclass
class MEACycle:
    """The cycle engine.

    Parameters
    ----------
    engine:
        Simulation engine to run in.
    monitor:
        Zero-argument callable returning the current observation.
    evaluate:
        Maps the observation to an :class:`EvaluationResult`.
    act:
        Called with the evaluation when a warning is raised; returns a
        short description of the action taken (or None for "do nothing").
    period:
        Cycle period in simulated seconds.
    retry:
        Optional retry policy: failed steps are retried immediately up to
        ``max_attempts`` within an iteration, and iterations that still
        fail push the next cycle out by the policy's backoff.
    telemetry:
        Telemetry hub receiving cycle/step spans and failure events
        (disabled :data:`~repro.telemetry.hub.NULL_HUB` by default).
    """

    engine: Engine
    monitor: Callable[[], Any]
    evaluate: Callable[[Any], EvaluationResult]
    act: Callable[[EvaluationResult], str | None]
    period: float = 30.0
    retry: RetryPolicy | None = None
    telemetry: TelemetryHub = NULL_HUB
    history: list[MEARecord] = field(default_factory=list, init=False)
    running: bool = field(default=False, init=False)
    failures: list[StepFailure] = field(default_factory=list, init=False)
    consecutive_failed_cycles: int = field(default=0, init=False)
    _wakeup: Wakeup = field(default_factory=Wakeup, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ConfigurationError("period must be positive")

    def start(self) -> None:
        """Launch the repeating cycle (idempotent)."""
        if self.running:
            return
        self.running = True
        self._wakeup.start(self.engine, self._cycle)

    def stop(self) -> None:
        """Stop the repeating cycle after the current iteration."""
        self.running = False

    # ------------------------------------------------------------------
    # Resilient step execution
    # ------------------------------------------------------------------

    def note_failure(
        self, step: str, error: BaseException, attempts: int = 1
    ) -> StepFailure:
        """Record a step failure observed by a collaborator (e.g. the
        controller catching an action exception it handled itself)."""
        failure = StepFailure(
            time=self.engine.now,
            step=step,
            error_type=type(error).__name__,
            message=str(error),
            attempts=attempts,
        )
        self.failures.append(failure)
        self.telemetry.emit(
            tel_events.MEA_STEP_FAILURE,
            step=failure.step,
            error_type=failure.error_type,
            message=failure.message,
            attempts=failure.attempts,
        )
        self.telemetry.counter("mea_step_failures_total", step=failure.step).inc()
        return failure

    def _run_step(self, step: str, fn: Callable, *args) -> tuple[Any, bool]:
        """Run one step with the retry guard.

        Returns ``(result, ok)``; on failure the result is ``None`` and a
        :class:`StepFailure` has been recorded.
        """
        with self.telemetry.span("mea." + step) as span:
            attempts = self.retry.max_attempts if self.retry is not None else 1
            last_error: BaseException | None = None
            for attempt in range(1, attempts + 1):
                try:
                    return fn(*args), True
                except Exception as exc:  # broad by design - the whole point
                    last_error = exc
                    if attempt < attempts:
                        self.telemetry.emit(
                            tel_events.RETRY,
                            step=step,
                            attempt=attempt,
                            error_type=type(exc).__name__,
                        )
                        self.telemetry.counter(
                            "mea_retries_total", step=step
                        ).inc()
            assert last_error is not None
            span.status = "error"
            span.annotate(error_type=type(last_error).__name__)
            self.note_failure(step, last_error, attempts=attempts)
            return None, False

    def step(self) -> MEARecord:
        """One M-E-A iteration right now.

        Step failures are absorbed: a failed monitor or evaluate yields a
        null (non-warning) evaluation, a failed act yields no action, and
        the record lists which steps failed.
        """
        tel = self.telemetry
        with tel.span("mea.cycle", iteration=len(self.history)) as cycle:
            failed: list[str] = []
            observation, ok = self._run_step("monitor", self.monitor)
            if not ok:
                failed.append("monitor")
            evaluation = NULL_EVALUATION
            if ok:
                evaluation, ok = self._run_step(
                    "evaluate", self.evaluate, observation
                )
                if not ok:
                    failed.append("evaluate")
                    evaluation = NULL_EVALUATION
            action: str | None = None
            if evaluation.warning:
                action, ok = self._run_step("act", self.act, evaluation)
                if not ok:
                    failed.append("act")
                    action = None
            record = MEARecord(
                time=self.engine.now,
                observation=observation,
                evaluation=evaluation,
                action_taken=action,
                failed_steps=tuple(failed),
            )
            self.history.append(record)
            if failed:
                self.consecutive_failed_cycles += 1
                cycle.annotate(failed_steps=failed)
            else:
                self.consecutive_failed_cycles = 0
            cycle.annotate(warning=evaluation.warning, action=action)
        tel.counter("mea_cycles_total").inc()
        if evaluation.warning:
            tel.counter("mea_warnings_total").inc()
        if action is not None:
            tel.counter("mea_actions_total").inc()
        if failed:
            tel.counter("mea_degraded_cycles_total").inc()
        tel.gauge("mea_consecutive_failed_cycles").set(
            float(self.consecutive_failed_cycles)
        )
        return record

    def _cycle(self) -> None:
        if not self.running:
            return
        self.step()
        delay = self.period
        if self.retry is not None and self.consecutive_failed_cycles > 0:
            delay += self.retry.backoff(self.consecutive_failed_cycles)
        self._wakeup.after(delay, self._cycle)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    @property
    def warnings_raised(self) -> int:
        """Number of iterations whose evaluation raised a warning."""
        return sum(1 for r in self.history if r.evaluation.warning)

    @property
    def actions_taken(self) -> int:
        """Number of iterations in which a countermeasure actually ran."""
        return sum(1 for r in self.history if r.action_taken is not None)

    @property
    def degraded_iterations(self) -> int:
        """Number of iterations in which at least one step failed."""
        return sum(1 for r in self.history if r.failed_steps)

    def failures_by_step(self) -> dict[str, int]:
        """Count of recorded step failures keyed by step name."""
        counts: dict[str, int] = {}
        for failure in self.failures:
            counts[failure.step] = counts.get(failure.step, 0) + 1
        return counts
