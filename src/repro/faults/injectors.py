"""Fault injectors.

Injectors turn dormant :class:`~repro.faults.model.Fault` instances into
running degradation processes against an :class:`InjectionTarget` -- the
small protocol the telecom components implement.  The injector families
mirror the error/symptom patterns the paper discusses:

- :class:`MemoryLeakInjector` -- the paper's running example: slow resource
  depletion producing symptoms long before errors are detected,
- :class:`ProcessHangInjector` -- a worker stops serving (capacity loss),
- :class:`StateCorruptionInjector` -- latent state corruption that surfaces
  as bursts of detected errors,
- :class:`OverloadInjector` -- load spike beyond provisioned capacity,
- :class:`IntermittentErrorInjector` -- background error noise unrelated to
  failures (what makes prediction hard).
"""

from __future__ import annotations

import abc
from typing import Protocol, runtime_checkable

import numpy as np

from repro.faults.classification import FaultPersistence
from repro.faults.model import Fault
from repro.simulator.engine import Engine
from repro.simulator.events import Wakeup


@runtime_checkable
class InjectionTarget(Protocol):
    """What a component must expose for injectors to act on it.

    The telecom components implement this protocol; tests use lightweight
    fakes.
    """

    name: str

    def leak_memory(self, megabytes: float) -> None:
        """Consume memory that is never freed."""

    def degrade_capacity(self, fraction: float) -> None:
        """Reduce effective service capacity by ``fraction`` in [0, 1]."""

    def restore_capacity(self) -> None:
        """Undo capacity degradation (e.g. hung worker restarted)."""

    def corrupt_state(self, amount: float) -> None:
        """Increase latent state corruption."""

    def add_background_load(self, delta: float) -> None:
        """Add (or with negative ``delta`` remove) background load."""

    def emit_error(self, message_id: int, fault_id: int | None, severity: int) -> None:
        """Write a detected error to the component's log."""


class FaultInjector(abc.ABC):
    """Base class: owns a fault and drives its activation over time.

    :meth:`start` fires :meth:`_begin` at the current time; each firing
    of the degradation process schedules the next through ``_wakeup``.
    The family is slotted, as the system it attacks is.
    """

    __slots__ = ("target", "rng", "fault", "active", "_wakeup")

    #: Error-log message-id block used by this injector family.
    message_base: int = 0

    def __init__(
        self,
        target: InjectionTarget,
        rng: np.random.Generator,
        persistence: FaultPersistence = FaultPersistence.PERMANENT,
    ) -> None:
        self.target = target
        self.rng = rng
        self.fault = Fault(
            kind=self.kind(), component=target.name, persistence=persistence
        )
        self.active = False
        self._wakeup = Wakeup()

    @classmethod
    def kind(cls) -> str:
        """Human-readable fault kind tag."""
        return cls.__name__.replace("Injector", "").lower()

    def start(self, engine: Engine) -> None:
        """Activate the fault and launch the degradation process."""
        self.fault.activate(engine.now)
        self.active = True
        self._wakeup.start(engine, self._begin)

    def stop(self) -> None:
        """Deactivate (the process observes ``self.active`` at its next wake-up)."""
        self.active = False
        self.fault.deactivate()

    @abc.abstractmethod
    def _begin(self) -> None:
        """The process's first firing, at the time of :meth:`start`."""


class _PoissonInjector(FaultInjector):
    """Acts at exponential gaps of mean ``period`` while active; each gap
    is drawn when the firing before it (the first: the start) ends."""

    __slots__ = ("period",)

    period: float

    def _begin(self) -> None:
        if self.active:
            self._wakeup.after(self.rng.exponential(self.period), self._fire)

    def _fire(self) -> None:
        if self.active:
            self._act()
            self._begin()

    @abc.abstractmethod
    def _act(self) -> None:
        """One activation of the fault."""


class MemoryLeakInjector(_PoissonInjector):
    """Leak memory at ``rate_mb`` per period; occasionally log allocation
    warnings once leakage is substantial (errors follow symptoms)."""

    __slots__ = ("rate_mb", "warn_after_mb", "leaked")

    message_base = 100

    def __init__(
        self,
        target: InjectionTarget,
        rng: np.random.Generator,
        rate_mb: float = 2.0,
        period: float = 30.0,
        warn_after_mb: float = 150.0,
    ) -> None:
        super().__init__(target, rng)
        self.rate_mb = rate_mb
        self.period = period
        self.warn_after_mb = warn_after_mb
        self.leaked = 0.0

    def _act(self) -> None:
        amount = self.rng.gamma(2.0, self.rate_mb / 2.0)
        self.target.leak_memory(amount)
        self.leaked += amount
        if self.leaked > self.warn_after_mb and self.rng.random() < 0.4:
            self.target.emit_error(
                self.message_base + int(self.rng.integers(0, 3)),
                self.fault.fault_id,
                severity=2,
            )


class ProcessHangInjector(FaultInjector):
    """Worker processes hang one after another: capacity erodes in steps
    (a cascading hang), each step logging timeout errors.

    The progressive erosion matters for prediction: errors appear minutes
    before the capacity loss is large enough to breach the SLA, which is
    the window online failure prediction lives in.
    """

    __slots__ = ("initial_loss", "step_loss", "max_loss", "step_period", "_applied")

    message_base = 200

    def __init__(
        self,
        target: InjectionTarget,
        rng: np.random.Generator,
        initial_loss: float = 0.2,
        step_loss: float = 0.06,
        max_loss: float = 0.8,
        step_period: float = 80.0,
    ) -> None:
        super().__init__(target, rng)
        self.initial_loss = initial_loss
        self.step_loss = step_loss
        self.max_loss = max_loss
        self.step_period = step_period
        self._applied = 0.0

    def _begin(self) -> None:
        self.target.degrade_capacity(self.initial_loss)
        # A superseded loop's loss is still applied: it counts toward max_loss.
        self._applied += self.initial_loss
        self.target.emit_error(self.message_base, self.fault.fault_id, severity=3)
        self._next_hang()

    def _hang(self) -> None:
        if self.active:
            if self._applied < self.max_loss:
                self.target.degrade_capacity(self.step_loss)
                self._applied += self.step_loss
            self.target.emit_error(
                self.message_base + 1 + int(self.rng.integers(0, 2)),
                self.fault.fault_id,
                severity=2,
            )
        self._next_hang()

    def _next_hang(self) -> None:
        if self.active:
            self._wakeup.after(self.rng.exponential(self.step_period), self._hang)
        else:
            # Runs at the first wake-up after stop(), not at stop() itself.
            self.target.restore_capacity()
            self._applied = 0.0


class StateCorruptionInjector(_PoissonInjector):
    """Latent corruption accumulates, surfacing as error bursts."""

    __slots__ = ("growth", "burst_threshold", "level")

    message_base = 300

    def __init__(
        self,
        target: InjectionTarget,
        rng: np.random.Generator,
        growth: float = 0.02,
        period: float = 25.0,
        burst_threshold: float = 0.3,
    ) -> None:
        super().__init__(target, rng)
        self.growth = growth
        self.period = period
        self.burst_threshold = burst_threshold
        self.level = 0.0

    def _act(self) -> None:
        increment = self.rng.exponential(self.growth)
        self.level += increment
        self.target.corrupt_state(increment)
        if self.level > self.burst_threshold:
            burst = 1 + int(self.rng.poisson(2))
            for _ in range(burst):
                self.target.emit_error(
                    self.message_base + int(self.rng.integers(0, 4)),
                    self.fault.fault_id,
                    severity=2,
                )


class OverloadInjector(FaultInjector):
    """A load spike beyond provisioned capacity (e.g. traffic storm)."""

    __slots__ = ("extra_load", "ramp_steps", "step_period", "_applied", "_ramped")

    message_base = 400

    def __init__(
        self,
        target: InjectionTarget,
        rng: np.random.Generator,
        extra_load: float = 0.5,
        ramp_steps: int = 5,
        step_period: float = 30.0,
    ) -> None:
        super().__init__(target, rng)
        self.extra_load = extra_load
        self.ramp_steps = ramp_steps
        self.step_period = step_period
        self._applied = 0.0
        self._ramped = 0

    def _begin(self) -> None:
        self._ramped = 0
        self._ramp()

    def _ramp(self) -> None:
        if not self.active:
            # Runs at the first wake-up after stop(), not at stop() itself.
            self.target.add_background_load(-self._applied)
            self._applied = 0.0
            return
        # Ramp up one step per period, then hold the overload while active.
        if self._ramped < self.ramp_steps:
            self._ramped += 1
            step = self.extra_load / self.ramp_steps
            self.target.add_background_load(step)
            self._applied += step
            if self._applied > self.extra_load * 0.5:
                self.target.emit_error(
                    self.message_base + int(self.rng.integers(0, 2)),
                    self.fault.fault_id,
                    severity=1,
                )
        self._wakeup.after(self.step_period, self._ramp)


class IntermittentErrorInjector(_PoissonInjector):
    """Benign background errors that never lead to failures.

    This is the noise floor: a realistic error log contains many reports
    that are *not* symptomatic of upcoming failures, which is precisely
    what makes online failure prediction non-trivial.
    """

    __slots__ = ("n_message_types",)

    message_base = 500

    def __init__(
        self,
        target: InjectionTarget,
        rng: np.random.Generator,
        period: float = 120.0,
        n_message_types: int = 8,
    ) -> None:
        super().__init__(target, rng, persistence=FaultPersistence.INTERMITTENT)
        self.period = period
        self.n_message_types = n_message_types

    def _act(self) -> None:
        self.target.emit_error(
            self.message_base + int(self.rng.integers(0, self.n_message_types)),
            self.fault.fault_id,
            severity=1,
        )
