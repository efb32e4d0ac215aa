"""Reference copy of the generator-process layer: the oracle for
``test_process_equivalence``.

Every periodic loop of the simulation used to be a generator driven by a
:class:`Process` that resumed it after each ``yield Timeout(delay)``.
The classes and functions below are verbatim copies of that layer --
``Process``, ``Timeout``, ``Signal`` (which ``Process`` needs for its
completion), ``Engine.process`` -- and of every loop that ran on it,
with the ``start``/``stop`` methods that launched and stopped them.
Methods became module functions taking ``self`` and lost their
docstrings; their bodies are unchanged, except that the loops take
``Timeout`` from this module.  :func:`install` patches them over the
current callback loops for one reference run.
"""

from __future__ import annotations

from typing import Any, Generator

import numpy as np

import repro.core.experiment as experiment_module
from repro.core.controller import EVAL_PERIOD, PFMController
from repro.core.mea import MEACycle
from repro.errors import SimulationError
from repro.faults.injectors import (
    FaultInjector,
    IntermittentErrorInjector,
    MemoryLeakInjector,
    OverloadInjector,
    ProcessHangInjector,
    StateCorruptionInjector,
)
from repro.faults.pfm_injectors import PFMInjector
from repro.monitoring.collectors import PeriodicCollector
from repro.simulator.engine import Engine
from repro.telecom.aging import NaturalAgingProcess
from repro.telecom.system import SCPSystem

# ----------------------------------------------------------------------
# The process layer
# ----------------------------------------------------------------------


class Timeout:
    """Yielded by a process to sleep for ``delay`` simulated time units."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        self.delay = float(delay)

    def __repr__(self) -> str:
        return f"Timeout({self.delay})"


class Signal:
    """A broadcast condition processes can wait on."""

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: list[Any] = []  # Process instances
        self._engine: Any = None

    def _register(self, process: Any, engine: Any) -> None:
        self._waiters.append(process)
        self._engine = engine

    def trigger(self, payload: Any = None) -> int:
        """Wake all waiting processes; returns how many were woken."""
        if self._engine is None:
            # Nobody ever waited; nothing to do.
            count = len(self._waiters)
            self._waiters.clear()
            return count
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self._engine.schedule(0.0, lambda p=process: p.resume(payload))
        return len(waiters)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"


class Process:
    """Couples a generator to an :class:`~repro.simulator.engine.Engine`."""

    def __init__(self, engine: Any, generator: Generator, name: str = "") -> None:
        self.engine = engine
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.finished = False
        self.result: Any = None
        self.completion = Signal(f"{self.name}.completion")

    def start(self) -> None:
        """Schedule the first advance at the current time."""
        self.engine.schedule(0.0, lambda: self.resume(None))

    def resume(self, payload: Any) -> None:
        """Advance the generator, dispatching on what it yields next."""
        if self.finished:
            return
        try:
            yielded = self.generator.send(payload)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.completion.trigger(stop.value)
            return
        self._dispatch(yielded)

    def _dispatch(self, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            self.engine.schedule(yielded.delay, lambda: self.resume(None))
        elif isinstance(yielded, Signal):
            yielded._register(self, self.engine)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded an unsupported object: {yielded!r}"
            )

    def interrupt(self) -> None:
        """Terminate the process by closing its generator."""
        if self.finished:
            return
        self.generator.close()
        self.finished = True
        self.completion.trigger(None)

    def __repr__(self) -> str:
        status = "finished" if self.finished else "active"
        return f"Process({self.name!r}, {status})"


def engine_process(self, generator: Generator, name: str = "") -> Process:
    proc = Process(self, generator, name=name)
    proc.start()
    return proc


# ----------------------------------------------------------------------
# SCP tick and natural aging
# ----------------------------------------------------------------------


def scp_start(self) -> None:
    if self._started:
        return
    self._started = True
    if self.config.enable_aging:
        for component in self.all_components():
            aging = NaturalAgingProcess(
                component, self.streams.get(f"aging:{component.name}")
            )
            aging.start(self.engine)
            self._aging.append(aging)
    self.engine.process(self._tick_loop(), name="scp-ticks")


def scp_tick_loop(self):
    while True:
        self._do_tick()
        yield Timeout(self.config.tick)


def aging_start(self, engine: Engine) -> None:
    self.running = True
    engine.process(self._leak(), name=f"aging-leak:{self.component.name}")
    engine.process(self._collect(), name=f"aging-gc:{self.component.name}")


def aging_stop(self) -> None:
    self.running = False


def aging_leak(self):
    while self.running:
        yield Timeout(self.rng.exponential(self.leak_period))
        if self.running:
            self.component.leak_memory(self.rng.exponential(self.leak_rate_mb))


def aging_collect(self):
    while self.running:
        yield Timeout(self.rng.exponential(self.gc_period))
        if self.running:
            # Partial GC: recovers recently leaked memory only.
            self.component.leaked_mb *= 1.0 - self.gc_effectiveness * self.rng.random()


# ----------------------------------------------------------------------
# Fault injectors
# ----------------------------------------------------------------------


def injector_start(self, engine: Engine) -> None:
    self.fault.activate(engine.now)
    self.active = True
    engine.process(self._run(engine), name=f"inject:{self.kind()}:{self.target.name}")


def injector_stop(self) -> None:
    self.active = False
    self.fault.deactivate()


def memory_leak_run(self, engine: Engine):
    while self.active:
        yield Timeout(self.rng.exponential(self.period))
        if not self.active:
            return
        amount = self.rng.gamma(2.0, self.rate_mb / 2.0)
        self.target.leak_memory(amount)
        self.leaked += amount
        if self.leaked > self.warn_after_mb and self.rng.random() < 0.4:
            self.target.emit_error(
                self.message_base + int(self.rng.integers(0, 3)),
                self.fault.fault_id,
                severity=2,
            )


def process_hang_run(self, engine: Engine):
    self.target.degrade_capacity(self.initial_loss)
    self._applied = self.initial_loss
    self.target.emit_error(self.message_base, self.fault.fault_id, severity=3)
    while self.active:
        yield Timeout(self.rng.exponential(self.step_period))
        if not self.active:
            break
        if self._applied < self.max_loss:
            self.target.degrade_capacity(self.step_loss)
            self._applied += self.step_loss
        self.target.emit_error(
            self.message_base + 1 + int(self.rng.integers(0, 2)),
            self.fault.fault_id,
            severity=2,
        )
    self.target.restore_capacity()
    self._applied = 0.0


def state_corruption_run(self, engine: Engine):
    while self.active:
        yield Timeout(self.rng.exponential(self.period))
        if not self.active:
            return
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


def overload_run(self, engine: Engine):
    step = self.extra_load / self.ramp_steps
    for _ in range(self.ramp_steps):
        if not self.active:
            break
        self.target.add_background_load(step)
        self._applied += step
        if self._applied > self.extra_load * 0.5:
            self.target.emit_error(
                self.message_base + int(self.rng.integers(0, 2)),
                self.fault.fault_id,
                severity=1,
            )
        yield Timeout(self.step_period)
    # Hold the overload while active.
    while self.active:
        yield Timeout(self.step_period)
    self.target.add_background_load(-self._applied)
    self._applied = 0.0


def intermittent_run(self, engine: Engine):
    while self.active:
        yield Timeout(self.rng.exponential(self.period))
        if not self.active:
            return
        self.target.emit_error(
            self.message_base + int(self.rng.integers(0, self.n_message_types)),
            self.fault.fault_id,
            severity=1,
        )


def pfm_injector_start(self, engine: Engine) -> None:
    self.running = True
    engine.process(self._run(), name=f"pfm-inject:{self.kind()}")


def pfm_injector_stop(self) -> None:
    self.running = False
    if self.attacking:
        self._deactivate()
        self.attacking = False


def pfm_injector_run(self):
    while self.running:
        yield Timeout(self.rng.exponential(self.mtbf))
        if not self.running:
            return
        self._activate()
        self.attacking = True
        self.episodes += 1
        yield Timeout(self.duration)
        if self.attacking:
            self._deactivate()
            self.attacking = False


# ----------------------------------------------------------------------
# Monitoring, MEA cycle, controller, repair measurement
# ----------------------------------------------------------------------


def collector_start(self) -> None:
    if self._running:
        return
    self._running = True
    self._generation += 1
    self.engine.process(self._run(self._generation), name="collector")


def collector_stop(self) -> None:
    self._running = False


def collector_run(self, generation: int):
    while self._running and generation == self._generation:
        self.sample_once()
        yield Timeout(self.interval)


def mea_start(self) -> None:
    if self.running:
        return
    self.running = True
    self.engine.process(self._run(), name="mea-cycle")


def mea_stop(self) -> None:
    self.running = False


def mea_run(self):
    while self.running:
        self.step()
        delay = self.period
        if self.retry is not None and self.consecutive_failed_cycles > 0:
            delay += self.retry.backoff(self.consecutive_failed_cycles)
        yield Timeout(delay)


def controller_start(self) -> None:
    self.mea.start()
    self.system.engine.process(self._housekeeping(), name="pfm-housekeeping")


def controller_housekeeping(self):
    while self.mea.running:
        self.maybe_restore_load()
        yield Timeout(EVAL_PERIOD * 4)


def attach_repair_measurement(
    sim,
    action,
    breakdowns,
    checkpoint_interval: float,
    burst_gap: float,
) -> None:
    system = sim.system
    state = {"last_repair": -np.inf}

    def checkpoints():
        while True:
            action.store.save(system.engine.now, tag="periodic")
            yield Timeout(checkpoint_interval)

    system.engine.process(checkpoints(), name="periodic-checkpoints")
    original_on_failure = system.sla.on_failure

    def on_failure(record) -> None:
        original_on_failure(record)
        if record.time - state["last_repair"] < burst_gap:
            return
        state["last_repair"] = record.time
        worst = max(
            system.containers,
            key=lambda c: c.swap_activity + c.corruption + c.degraded_fraction,
        )
        breakdowns.append(action.repair(system, worst.name, record.time))

    system.sla.on_failure = on_failure


def install(monkeypatch) -> None:
    """Patch the generator loops over the current callback loops.

    The current collector keeps no generation counter, so its class gets
    a zero default for the reference ``start`` to count from.
    """
    monkeypatch.setattr(Engine, "process", engine_process, raising=False)
    monkeypatch.setattr(SCPSystem, "start", scp_start)
    monkeypatch.setattr(SCPSystem, "_tick_loop", scp_tick_loop, raising=False)
    monkeypatch.setattr(NaturalAgingProcess, "start", aging_start)
    monkeypatch.setattr(NaturalAgingProcess, "stop", aging_stop)
    monkeypatch.setattr(NaturalAgingProcess, "_leak", aging_leak)
    monkeypatch.setattr(NaturalAgingProcess, "_collect", aging_collect)
    monkeypatch.setattr(FaultInjector, "start", injector_start)
    monkeypatch.setattr(FaultInjector, "stop", injector_stop)
    for cls, run in (
        (MemoryLeakInjector, memory_leak_run),
        (ProcessHangInjector, process_hang_run),
        (StateCorruptionInjector, state_corruption_run),
        (OverloadInjector, overload_run),
        (IntermittentErrorInjector, intermittent_run),
    ):
        monkeypatch.setattr(cls, "_run", run, raising=False)
    monkeypatch.setattr(PFMInjector, "start", pfm_injector_start)
    monkeypatch.setattr(PFMInjector, "stop", pfm_injector_stop)
    monkeypatch.setattr(PFMInjector, "_run", pfm_injector_run, raising=False)
    monkeypatch.setattr(PeriodicCollector, "_generation", 0, raising=False)
    monkeypatch.setattr(PeriodicCollector, "start", collector_start)
    monkeypatch.setattr(PeriodicCollector, "stop", collector_stop)
    monkeypatch.setattr(PeriodicCollector, "_run", collector_run, raising=False)
    monkeypatch.setattr(MEACycle, "start", mea_start)
    monkeypatch.setattr(MEACycle, "stop", mea_stop)
    monkeypatch.setattr(MEACycle, "_run", mea_run, raising=False)
    monkeypatch.setattr(PFMController, "start", controller_start)
    monkeypatch.setattr(PFMController, "_housekeeping", controller_housekeeping)
    monkeypatch.setattr(
        experiment_module, "_attach_repair_measurement", attach_repair_measurement
    )
