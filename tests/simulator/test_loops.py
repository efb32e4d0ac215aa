"""Periodic loops on callbacks: a loop stopped and started again before
its pending wake-up fires goes on as one loop, not two."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.mea import EvaluationResult, MEACycle
from repro.faults.injectors import IntermittentErrorInjector, ProcessHangInjector
from repro.faults.pfm_injectors import PFMInjector
from repro.monitoring.collectors import Gauge, PeriodicCollector
from repro.monitoring.timeseries import TimeSeriesStore
from repro.simulator import Engine, Wakeup
from repro.telecom.aging import NaturalAgingProcess

RESTART_AT = 5.0
HORIZON = 1_000.0


class TestWakeup:
    def test_start_fires_at_the_current_time(self):
        engine = Engine(start_time=7.0)
        fired = []
        Wakeup().start(engine, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [7.0]

    def test_a_second_start_supersedes_the_pending_firing(self):
        engine = Engine()
        wakeup = Wakeup()
        fired = []

        def loop(name):
            def fire():
                fired.append((name, engine.now))
                wakeup.after(10.0, fire)

            return fire

        wakeup.start(engine, loop("old"))
        engine.schedule(15.0, lambda: wakeup.start(engine, loop("new")))
        engine.run(until=40.0)
        assert fired == [
            ("old", 0.0),
            ("old", 10.0),
            ("new", 15.0),
            ("new", 25.0),
            ("new", 35.0),
        ]


class _Target:
    """Records what an injector or aging loop does to its target."""

    name = "target"

    def __init__(self, engine: Engine) -> None:
        self.engine = engine
        self.log: list[tuple] = []
        self._leaked = 0.0
        self.degraded = 0.0

    @property
    def leaked_mb(self) -> float:
        return self._leaked

    @leaked_mb.setter
    def leaked_mb(self, value: float) -> None:
        self.log.append(("gc", self.engine.now))
        self._leaked = value

    def leak_memory(self, megabytes: float) -> None:
        self.log.append(("leak", self.engine.now, megabytes))
        self._leaked += megabytes

    def emit_error(self, message_id: int, fault_id, severity: int) -> None:
        self.log.append(("error", self.engine.now, message_id))

    def degrade_capacity(self, fraction: float) -> None:
        self.degraded += fraction

    def restore_capacity(self) -> None:
        self.log.append(("restore", self.engine.now))
        self.degraded = 0.0


class _RecordingAttack(PFMInjector):
    def __init__(self, rng, log: list, engine: Engine) -> None:
        super().__init__(rng, mtbf=40.0, duration=15.0)
        self._log, self._engine_for_log = log, engine

    def _activate(self) -> None:
        self._log.append(("on", self._engine_for_log.now))

    def _deactivate(self) -> None:
        self._log.append(("off", self._engine_for_log.now))


def _injector(engine, rng):
    target = _Target(engine)
    return IntermittentErrorInjector(target, rng, period=10.0), target.log


def _aging(engine, rng):
    target = _Target(engine)
    aging = NaturalAgingProcess(target, rng, leak_period=8.0, gc_period=50.0)
    return aging, target.log


def _attack(engine, rng):
    log: list = []
    return _RecordingAttack(rng, log, engine), log


LOOPS = {"fault-injector": _injector, "aging": _aging, "pfm-injector": _attack}


def _restarted(make) -> tuple[list, dict]:
    """Start at 0, stop and start again at RESTART_AT.  Returns what was
    logged after the restart and the stream state at the restart."""
    engine = Engine()
    loop, log = make(engine, np.random.default_rng(3))
    state = {}

    def restart() -> None:
        loop.stop()
        state.update(loop.rng.bit_generator.state, mark=len(log))
        loop.start(engine)

    loop.start(engine)
    engine.schedule_at(RESTART_AT, restart)
    engine.run(until=HORIZON)
    return log[state.pop("mark") :], state


def _fresh(make, state: dict) -> list:
    """One loop started at RESTART_AT from the restarted loop's stream."""
    engine = Engine(start_time=RESTART_AT)
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    loop, log = make(engine, rng)
    loop.start(engine)
    engine.run(until=HORIZON)
    return log


@pytest.mark.parametrize("kind", list(LOOPS))
def test_a_restarted_loop_runs_once(kind):
    """After the restart only the new loop fires: it acts exactly as one
    loop started then from the same stream, the superseded loop never."""
    after_restart, state = _restarted(LOOPS[kind])
    fresh = _fresh(LOOPS[kind], state)
    assert len(fresh) > 10
    assert after_restart == fresh


def test_a_restarted_mea_cycle_keeps_its_period():
    engine = Engine()
    cycle = MEACycle(
        engine=engine,
        monitor=lambda: None,
        evaluate=lambda observation: EvaluationResult(score=0.0, warning=False),
        act=lambda evaluation: None,
        period=30.0,
    )

    def restart() -> None:
        cycle.stop()
        cycle.start()

    cycle.start()
    engine.schedule_at(45.0, restart)
    engine.run(until=140.0)
    times = [record.time for record in cycle.history]
    assert times == [0.0, 30.0, 45.0, 75.0, 105.0, 135.0]


def test_a_restarted_collector_keeps_its_interval():
    engine = Engine()
    store = TimeSeriesStore()
    collector = PeriodicCollector(engine, store, [Gauge("x", lambda: 1.0)], 60.0)

    def restart() -> None:
        collector.stop()
        collector.start()

    collector.start()
    engine.schedule_at(90.0, restart)
    engine.run(until=300.0)
    assert list(store.series("x").times) == [0.0, 60.0, 90.0, 150.0, 210.0, 270.0]


def test_a_superseded_hang_leaves_the_restore_to_its_successor():
    """The superseded loop's clean-up never runs; the loop that took over
    restores capacity at its first wake-up after the final stop."""
    engine = Engine()
    target = _Target(engine)
    hang = ProcessHangInjector(
        target, np.random.default_rng(5), initial_loss=0.2, step_period=50.0
    )

    def restart() -> None:
        hang.stop()
        hang.start(engine)

    hang.start(engine)
    engine.schedule_at(RESTART_AT, restart)
    engine.schedule_at(400.0, hang.stop)
    engine.run(until=399.0)
    assert target.degraded >= 0.4  # both onsets, no restore in between
    assert hang._applied == pytest.approx(target.degraded)  # max_loss sees both
    assert not [entry for entry in target.log if entry[0] == "restore"]
    engine.run(until=HORIZON)
    restores = [entry for entry in target.log if entry[0] == "restore"]
    assert len(restores) == 1 and restores[0][1] > 400.0
    assert target.degraded == 0.0
