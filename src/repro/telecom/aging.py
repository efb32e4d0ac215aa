"""Background software-aging processes.

Parnas' "software aging" (memory leaks, unreleased locks, accumulated
round-off) affects even fault-free periods.  The natural aging process
gives the monitoring data its realistic sawtooth texture: slow leakage
punctuated by partial garbage collection.  It is deliberately mild -- on
its own it never causes SLA failures; injected faults do.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.simulator.engine import Engine
from repro.simulator.events import Wakeup
from repro.telecom.components import Component


class NaturalAgingProcess:
    """Mild leak + periodic partial GC on one component."""

    __slots__ = (
        "component",
        "rng",
        "leak_rate_mb",
        "leak_period",
        "gc_period",
        "gc_effectiveness",
        "running",
        "_leak_wakeup",
        "_gc_wakeup",
    )

    def __init__(
        self,
        component: Component,
        rng: np.random.Generator,
        leak_rate_mb: float = 0.15,
        leak_period: float = 60.0,
        gc_period: float = 3_600.0,
        gc_effectiveness: float = 0.6,
    ) -> None:
        if leak_rate_mb < 0 or leak_period <= 0 or gc_period <= 0:
            raise ConfigurationError("aging parameters must be positive")
        if not 0 <= gc_effectiveness <= 1:
            raise ConfigurationError("gc_effectiveness must be in [0, 1]")
        self.component = component
        self.rng = rng
        self.leak_rate_mb = leak_rate_mb
        self.leak_period = leak_period
        self.gc_period = gc_period
        self.gc_effectiveness = gc_effectiveness
        self.running = False
        self._leak_wakeup = Wakeup()
        self._gc_wakeup = Wakeup()

    def start(self, engine: Engine) -> None:
        self.running = True
        self._leak_wakeup.start(engine, self._arm_leak)
        self._gc_wakeup.start(engine, self._arm_collect)

    def stop(self) -> None:
        self.running = False

    # Each loop's first firing only draws its first gap; later firings
    # run the body, then draw the next gap from the same stream.

    def _arm_leak(self) -> None:
        if self.running:
            self._leak_wakeup.after(self.rng.exponential(self.leak_period), self._leak)

    def _leak(self) -> None:
        if self.running:
            self.component.leak_memory(self.rng.exponential(self.leak_rate_mb))
            self._arm_leak()

    def _arm_collect(self) -> None:
        if self.running:
            self._gc_wakeup.after(self.rng.exponential(self.gc_period), self._collect)

    def _collect(self) -> None:
        if self.running:
            # Partial GC: recovers recently leaked memory only.
            self.component.leaked_mb *= 1.0 - self.gc_effectiveness * self.rng.random()
            self._arm_collect()
