"""Resilience policies for the MEA stack itself.

The paper argues the Monitor-Evaluate-Act cycle keeps the *managed* system
dependable; this module supplies the mechanisms that keep the *cycle*
dependable.  Two classical patterns, both expressed in simulated time:

- :class:`RetryPolicy` -- bounded retries with exponential backoff.  A
  failed step is retried immediately up to ``max_attempts``; if the whole
  iteration still fails, the next cycle is delayed by an exponentially
  growing backoff instead of the nominal period (trading monitoring
  frequency for stability, never dying).
- :class:`CircuitBreaker` -- per-action breaker that opens after repeated
  failures, rejects execution while open, and half-opens after a cooldown
  to probe whether the action recovered.

Neither imports anything above the substrate layer, so the core can use
them without creating an import cycle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff (simulated seconds).

    ``max_attempts`` counts the first try: ``max_attempts=3`` means one
    call plus up to two immediate retries.  :meth:`backoff` maps the
    number of *consecutive failed cycles* to the delay before the next
    cycle iteration.
    """

    max_attempts: int = 2
    backoff_base: float = 30.0
    backoff_factor: float = 2.0
    backoff_max: float = 600.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError("max_attempts must be >= 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ConfigurationError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")

    def backoff(self, consecutive_failures: int) -> float:
        """Delay before the next attempt after ``consecutive_failures``."""
        if consecutive_failures <= 0:
            return 0.0
        delay = self.backoff_base * self.backoff_factor ** (consecutive_failures - 1)
        return min(delay, self.backoff_max)


class BreakerState(enum.Enum):
    """Circuit breaker states (standard three-state machine)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


@dataclass
class CircuitBreaker:
    """Suppress an operation that keeps failing; probe again after cooldown.

    The clock is supplied by the caller (simulated time), so the breaker
    itself stays independent of the simulation engine.

    State machine: CLOSED counts consecutive failures and trips to OPEN at
    ``failure_threshold``; OPEN rejects calls until ``cooldown`` simulated
    seconds have passed, then transitions to HALF_OPEN on the next
    :meth:`allow`; in HALF_OPEN a recorded success closes the breaker and
    a recorded failure re-opens it (restarting the cooldown).

    ``on_transition`` (if set) is invoked as
    ``on_transition(name, old_state, new_state, now)`` on every state
    change -- the seam the telemetry layer uses to stream breaker events
    without the breaker importing anything above the substrate.
    """

    name: str = "breaker"
    failure_threshold: int = 3
    cooldown: float = 600.0
    on_transition: Callable[[str, str, str, float], None] | None = None
    state: BreakerState = field(default=BreakerState.CLOSED, init=False)
    consecutive_failures: int = field(default=0, init=False)
    times_opened: int = field(default=0, init=False)
    opened_at: float = field(default=float("-inf"), init=False)
    calls_rejected: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if self.cooldown < 0:
            raise ConfigurationError("cooldown must be >= 0")

    def _set_state(self, new_state: BreakerState, now: float) -> None:
        old = self.state
        if old is new_state:
            return
        self.state = new_state
        if self.on_transition is not None:
            self.on_transition(self.name, old.value, new_state.value, now)

    def allow(self, now: float) -> bool:
        """Whether a call may proceed at simulated time ``now``."""
        if self.state is BreakerState.OPEN:
            if now - self.opened_at >= self.cooldown:
                self._set_state(BreakerState.HALF_OPEN, now)
            else:
                self.calls_rejected += 1
                return False
        return True

    def record_success(self, now: float) -> None:
        """A call succeeded: close the breaker and clear the failure run."""
        self.consecutive_failures = 0
        self._set_state(BreakerState.CLOSED, now)

    def record_failure(self, now: float) -> None:
        """A call failed: count it, tripping or re-opening as needed."""
        self.consecutive_failures += 1
        if self.state is BreakerState.HALF_OPEN:
            self._trip(now)
        elif (
            self.state is BreakerState.CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._trip(now)

    def _trip(self, now: float) -> None:
        self._set_state(BreakerState.OPEN, now)
        self.opened_at = now
        self.times_opened += 1

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self.state.value}, "
            f"failures={self.consecutive_failures}, opened={self.times_opened}x)"
        )
