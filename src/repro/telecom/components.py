"""Components of the multi-tier SCP.

Each :class:`Component` models one container/tier element: it has service
capacity, memory, and degradation state (leaked memory, hung workers,
latent corruption, background load).  Components implement the
fault-injection target protocol (:class:`repro.faults.injectors.InjectionTarget`)
and expose their state as :class:`repro.monitoring.collectors.Gauge` lists,
so injectors and the monitoring layer plug in without knowing telecom
internals.

The performance model is an M/M/c-style approximation evaluated per
simulation tick: the *stretch* (response time inflation) grows with
utilization, memory pressure (swapping), lost capacity and corruption.
"""

from __future__ import annotations

import enum
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.model import ErrorRecord
from repro.monitoring.collectors import Gauge


class Tier(enum.Enum):
    """Architectural tier of a component."""

    FRONTEND = "frontend"
    SERVICE_LOGIC = "service-logic"
    DATABASE = "database"


#: Fraction of free memory below which swapping starts to hurt.
SWAP_THRESHOLD = 0.25
#: Stretch multiplier slope once swapping starts.
SWAP_PENALTY = 8.0
#: Utilization above which the queueing approximation saturates.
MAX_UTILIZATION = 0.97


class Component:
    """One container of the SCP.

    Parameters
    ----------
    name:
        Unique component name (e.g. ``"container-2"``).
    tier:
        Architectural tier.
    capacity:
        Number of parallel workers (request-equivalents per service time).
    service_time:
        Nominal per-request service time at this tier, in seconds.
    memory_mb:
        Provisioned memory.
    error_sink:
        Callback receiving :class:`ErrorRecord` instances (the system's
        error log).
    """

    __slots__ = (
        "name",
        "tier",
        "capacity",
        "service_time",
        "memory_mb",
        "_error_sink",
        "baseline_memory_mb",
        "leaked_mb",
        "degraded_fraction",
        "corruption",
        "background_load",
        "utilization",
        "last_stretch",
        "restarting_until",
        "on_restart",
        "_clock",
        "errors_emitted",
        "restarts",
    )

    def __init__(
        self,
        name: str,
        tier: Tier,
        capacity: int,
        service_time: float,
        memory_mb: float,
        error_sink: Callable[[ErrorRecord], None] | None = None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError("capacity must be >= 1")
        if service_time <= 0 or memory_mb <= 0:
            raise ConfigurationError("service_time and memory_mb must be positive")
        self.name = name
        self.tier = tier
        self.capacity = capacity
        self.service_time = service_time
        self.memory_mb = memory_mb
        self._error_sink = error_sink or (lambda record: None)

        # Degradation state.
        self.baseline_memory_mb = 0.30 * memory_mb
        self.leaked_mb = 0.0
        self.degraded_fraction = 0.0
        self.corruption = 0.0
        self.background_load = 0.0

        # Per-tick outputs (updated by ``process_tick``).
        self.utilization = 0.0
        self.last_stretch = 1.0

        # Restart bookkeeping.
        self.restarting_until: float | None = None
        #: Called when a restart begins (the owning system listens).
        self.on_restart: Callable[[], None] | None = None
        self._clock: Callable[[], float] = lambda: 0.0

        # Counters.
        self.errors_emitted = 0
        self.restarts = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Give the component access to simulated time (for error stamps)."""
        self._clock = clock

    def set_error_sink(self, sink: Callable[[ErrorRecord], None]) -> None:
        self._error_sink = sink

    # ------------------------------------------------------------------
    # InjectionTarget protocol
    # ------------------------------------------------------------------

    def leak_memory(self, megabytes: float) -> None:
        self.leaked_mb = min(
            self.leaked_mb + megabytes, self.memory_mb - self.baseline_memory_mb
        )

    def degrade_capacity(self, fraction: float) -> None:
        self.degraded_fraction = float(np.clip(self.degraded_fraction + fraction, 0.0, 0.95))

    def restore_capacity(self) -> None:
        self.degraded_fraction = 0.0

    def corrupt_state(self, amount: float) -> None:
        # Additive per the InjectionTarget protocol ("increase latent
        # corruption"): a restart resets the level and damage must then
        # re-accumulate rather than reappear wholesale.
        self.corruption = float(np.clip(self.corruption + amount, 0.0, 2.0))

    def add_background_load(self, delta: float) -> None:
        self.background_load = max(0.0, self.background_load + delta)

    def emit_error(self, message_id: int, fault_id: int | None, severity: int) -> None:
        self.errors_emitted += 1
        self._error_sink(
            ErrorRecord(
                time=self._clock(),
                message_id=message_id,
                component=self.name,
                fault_id=fault_id,
                severity=severity,
                detected=True,
            )
        )

    # ------------------------------------------------------------------
    # Monitoring
    # ------------------------------------------------------------------

    def gauges(self) -> list[Gauge]:
        return [
            Gauge("cpu_utilization", lambda: self.utilization),
            Gauge("memory_used_mb", lambda: self.memory_used_mb),
            Gauge("memory_free_mb", lambda: self.memory_free_mb),
            Gauge("swap_activity", lambda: self.swap_activity),
            Gauge("stretch", lambda: self.last_stretch),
            Gauge("effective_capacity", lambda: self.effective_capacity),
        ]

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------

    # The derived values below read attributes directly rather than each
    # other: ``stretch_factor`` runs for every component on every tick.

    @property
    def memory_used_mb(self) -> float:
        return self.baseline_memory_mb + self.leaked_mb

    @property
    def memory_free_mb(self) -> float:
        return self.memory_mb - (self.baseline_memory_mb + self.leaked_mb)

    @property
    def free_fraction(self) -> float:
        free = self.memory_mb - (self.baseline_memory_mb + self.leaked_mb)
        return free / self.memory_mb

    @property
    def swap_activity(self) -> float:
        """0 while memory is ample, ramps up as free memory vanishes."""
        free = self.memory_mb - (self.baseline_memory_mb + self.leaked_mb)
        free_fraction = free / self.memory_mb
        if free_fraction >= SWAP_THRESHOLD:
            return 0.0
        return (SWAP_THRESHOLD - free_fraction) / SWAP_THRESHOLD

    @property
    def effective_capacity(self) -> float:
        if self.restarting_until is not None:
            return 1e-6  # effectively no capacity while restarting
        return max(self.capacity * (1.0 - self.degraded_fraction), 1e-6)

    # ------------------------------------------------------------------
    # Performance model
    # ------------------------------------------------------------------

    def stretch_factor(self, offered_demand: float, dt: float) -> float:
        """Response-time inflation for this tick.

        ``offered_demand`` is the request-equivalent work arriving during
        the tick.  The stretch combines queueing delay (M/M/c-flavoured
        ``1 / (1 - rho)``), swapping, and corruption-induced retries.
        """
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        arrival_rate = offered_demand / dt + self.background_load
        # The comparisons below are ``min``/``max`` spelled out, NaN
        # included: ``min(a, b)`` is ``b if b < a else a``.
        if self.restarting_until is not None:
            capacity = 1e-6
        else:
            capacity = self.capacity * (1.0 - self.degraded_fraction)
            if 1e-6 > capacity:
                capacity = 1e-6
        rho = arrival_rate * self.service_time / capacity
        self.utilization = float(1.5 if 1.5 < rho else rho)
        if MAX_UTILIZATION < rho:
            rho = MAX_UTILIZATION
        queueing = 1.0 / (1.0 - rho)
        free = self.memory_mb - (self.baseline_memory_mb + self.leaked_mb)
        free_fraction = free / self.memory_mb
        if free_fraction >= SWAP_THRESHOLD:
            swapping = 1.0
        else:
            swapping = 1.0 + SWAP_PENALTY * (
                (SWAP_THRESHOLD - free_fraction) / SWAP_THRESHOLD
            )
        retries = 1.0 + 0.8 * self.corruption
        self.last_stretch = float(queueing * swapping * retries)
        return self.last_stretch

    # ------------------------------------------------------------------
    # Countermeasure hooks
    # ------------------------------------------------------------------

    def begin_restart(self, now: float, duration: float) -> None:
        """Take the component down for ``duration`` (preventive restart)."""
        self.restarting_until = now + duration
        self.restarts += 1
        if self.on_restart is not None:
            self.on_restart()

    def finish_restart_if_due(self, now: float) -> bool:
        """Complete a pending restart; resets all degradation state."""
        if self.restarting_until is not None and now >= self.restarting_until:
            self.restarting_until = None
            self.rejuvenate()
            return True
        return False

    def rejuvenate(self) -> None:
        """Reset aging state (what a restart achieves)."""
        self.leaked_mb = 0.0
        self.degraded_fraction = 0.0
        self.corruption = 0.0

    def cleanup(self, effectiveness: float = 0.7) -> None:
        """State clean-up without downtime (garbage collection etc.).

        Recovers ``effectiveness`` of leaked memory and corruption but does
        not fix hung workers.
        """
        if not 0.0 <= effectiveness <= 1.0:
            raise ConfigurationError("effectiveness must be in [0, 1]")
        self.leaked_mb *= 1.0 - effectiveness
        self.corruption *= 1.0 - effectiveness

    def __repr__(self) -> str:
        return (
            f"Component({self.name!r}, tier={self.tier.value}, "
            f"util={self.utilization:.2f}, free={self.memory_free_mb:.0f}MB)"
        )
