"""Differential oracle: the callback loops fire exactly as the generator
processes in ``process_reference`` did.

Each scenario runs twice in one process, once on the reference
generator loops and once on the current callback loops, over the same
(current) engine, tick and predictors.  Every event that fires is
recorded as ``(time, seq)``: a loop whose first firing, period or
random draws moved changes that trace, and the state compared after the
run.  Equality is exact.
"""

from __future__ import annotations

import dataclasses
import enum

import numpy as np
import pytest

from repro.actions.checkpoint import PreparedRepairAction
from repro.core.controller import PFMController
import repro.core.experiment as experiment
from repro.core.experiment import run_closed_loop, train_spec
from repro.faults.injectors import IntermittentErrorInjector
from repro.fleet.spec import RunSpec
from repro.resilience.campaign import (
    CampaignConfig,
    campaign_specs,
    run_scenario_spec,
    training_plan_for_spec,
)
from repro.simulator import Engine
from repro.telecom import SCPSystem
from repro.telecom.dataset import DatasetConfig, _make_injector, prepare_simulation

from ..telecom.test_tick_equivalence import _renumber_faults, _script
from . import process_reference

SEEDS = (11, 21, 3)
HORIZON = 4 * 3600.0
EVAL_HORIZON = 6 * 3600.0

#: One injector of every kind, each stopped while it runs, so the wake-up
#: after ``stop()`` (capacity restore, unload) is reached too.
EXTRA_FAULTS = (
    ("memory-leak", 1_000.0, 2_500.0),
    ("process-hang", 1_500.0, 2_700.0),
    ("state-corruption", 5_000.0, 6_500.0),
    ("overload", 7_000.0, 7_100.0),
    ("overload", 8_000.0, 9_500.0),
    ("intermittent", 500.0, 12_000.0),
)


def _injector(kind: str, target, rng):
    if kind == "intermittent":
        return IntermittentErrorInjector(target, rng, period=60.0)
    return _make_injector(kind, target, rng)


def _canon(value):
    """A form of ``value`` that compares floats and arrays bit for bit."""
    if isinstance(value, float):
        return ("float", float(value).hex())
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, enum.Enum):
        return (type(value).__name__, value.name)
    if dataclasses.is_dataclass(value):
        return (
            type(value).__name__,
            tuple(
                (f.name, _canon(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, dict):
        return tuple((_canon(k), _canon(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return tuple(_canon(v) for v in value)
    return value


def _system_state(system: SCPSystem) -> dict:
    return {
        "windows": _canon(system.sla.windows),
        "failures": _canon(system.failure_log.records),
        "errors": _canon(_renumber_faults(system.error_log.records)),
        "ticks_run": system.ticks_run,
        "rejected_requests": system.rejected_requests,
        "admission_fraction": _canon(system.admission_fraction),
        "weights": _canon(system.weights),
        "components": _canon(
            [
                (
                    c.name,
                    c.utilization,
                    c.last_stretch,
                    c.leaked_mb,
                    c.degraded_fraction,
                    c.corruption,
                    c.background_load,
                    c.restarting_until,
                    c.restarts,
                    c.errors_emitted,
                )
                for c in system.all_components()
            ]
        ),
    }


def _controller_state(controller: PFMController) -> dict:
    return {
        "history": _canon(controller.mea.history),
        "step_failures": _canon(controller.mea.failures),
        "warnings": _canon(controller.warnings),
        "evaluations": _canon(controller.evaluations),
        "resilience": _canon(controller.resilience_summary()),
    }


class _Recorder:
    """Records every fired event and every system and controller built."""

    def __init__(self, monkeypatch) -> None:
        self.fired: list[tuple[float, int]] = []
        self.engines: list[Engine] = []
        self.systems: list[SCPSystem] = []
        self.controllers: list[PFMController] = []
        schedule_at = Engine.schedule_at
        engine_init = Engine.__init__
        system_init = SCPSystem.__init__
        controller_init = PFMController.__post_init__
        fired = self.fired

        def recording_schedule_at(engine, time, callback, priority=0):
            seq = engine._seq

            def fire() -> None:
                fired.append((time, seq))
                callback()

            return schedule_at(engine, time, fire, priority)

        def recording_engine_init(engine, *args, **kwargs):
            engine_init(engine, *args, **kwargs)
            self.engines.append(engine)

        def recording_system_init(system, *args, **kwargs):
            system_init(system, *args, **kwargs)
            self.systems.append(system)

        def recording_controller_init(controller):
            controller_init(controller)
            self.controllers.append(controller)

        monkeypatch.setattr(Engine, "schedule_at", recording_schedule_at)
        monkeypatch.setattr(Engine, "__init__", recording_engine_init)
        monkeypatch.setattr(SCPSystem, "__init__", recording_system_init)
        monkeypatch.setattr(PFMController, "__post_init__", recording_controller_init)

    def outcome(self) -> dict:
        return {
            "fired": self.fired,
            "processed_events": [e.processed_events for e in self.engines],
            "systems": [_system_state(s) for s in self.systems],
            "controllers": [_controller_state(c) for c in self.controllers],
        }


def _scripted_run(seed: int) -> None:
    """The tick oracle's countermeasure script, every fault kind started
    and stopped, and the repair measurement's checkpoint loop."""
    run = prepare_simulation(DatasetConfig(seed=seed, horizon=HORIZON))
    _script(run)
    engine, system = run.engine, run.system
    for index, (kind, begin, end) in enumerate(EXTRA_FAULTS):
        target = system.containers[index % len(system.containers)]
        injector = _injector(kind, target, run.streams.fresh(f"extra:{index}"))
        engine.schedule_at(begin, lambda i=injector: i.start(engine))
        engine.schedule_at(end, injector.stop)
    # Looked up at call time: the reference run patches the module's copy.
    experiment._attach_repair_measurement(
        run, PreparedRepairAction(), [], 1_200.0, 900.0
    )
    run.run()


@pytest.fixture(scope="module")
def trained():
    """The closed loop's trained predictor; also warms the campaign
    shards' training cache, so no recorded run trains."""
    from repro.fleet.shards import cached_training

    cached_training(*training_plan_for_spec(_shard_spec(SEEDS[0])))
    return train_spec(RunSpec(seed=11, eval_seed=21, horizon=EVAL_HORIZON))


def _controller_run(seed: int, trained) -> None:
    spec = RunSpec(seed=11, eval_seed=seed, horizon=EVAL_HORIZON)
    run_closed_loop(spec, trained=trained)


def _shard_spec(seed: int) -> RunSpec:
    config = CampaignConfig(
        train_seed=11,
        eval_seed=seed,
        injection_seed=seed + 1,
        horizon=EVAL_HORIZON,
        attack_mtbf=1_800.0,
        attack_duration=1_200.0,
    )
    (spec,) = [s for s in campaign_specs(config) if s.scenario == "all-fronts"]
    return spec


def _attacked_shard(seed: int, trained) -> None:
    run_scenario_spec(_shard_spec(seed))


SCENARIOS = {
    "script": lambda seed, trained: _scripted_run(seed),
    "controller": _controller_run,
    "attacked-shard": _attacked_shard,
}


def _both(scenario: str, seed: int, trained) -> tuple[dict, dict]:
    outcomes = []
    for reference in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if reference:
                process_reference.install(patch)
            recorder = _Recorder(patch)
            SCENARIOS[scenario](seed, trained)
        outcomes.append(recorder.outcome())
    return outcomes[0], outcomes[1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_callback_loops_fire_like_generator_processes(scenario, seed, trained):
    reference, current = _both(scenario, seed, trained)
    assert len(reference["fired"]) > 1_000
    assert current["fired"] == reference["fired"]
    assert current["processed_events"] == reference["processed_events"]
    assert len(current["systems"]) == len(reference["systems"])
    for got, want in zip(current["systems"], reference["systems"], strict=True):
        for key, value in want.items():
            assert got[key] == value, key
    assert len(current["controllers"]) == len(reference["controllers"])
    for got, want in zip(
        current["controllers"], reference["controllers"], strict=True
    ):
        for key, value in want.items():
            assert got[key] == value, key


def test_scenarios_reach_every_loop(trained):
    """The runs above exercise every converted loop, not just the tick."""
    reached: set[str] = set()

    def watch(cls, name):
        original = getattr(cls, name)

        def spy(self, *args, **kwargs):
            reached.add(f"{cls.__name__}.{name}")
            return original(self, *args, **kwargs)

        return spy

    from repro.actions.checkpoint import CheckpointStore
    from repro.core.mea import MEACycle
    from repro.faults.injectors import (
        MemoryLeakInjector,
        OverloadInjector,
        ProcessHangInjector,
        StateCorruptionInjector,
    )
    from repro.faults.pfm_injectors import (
        ActionFailureInjector,
        MonitoringDropoutInjector,
        ObservationCorruptionInjector,
        PredictorFaultInjector,
        PredictorLatencyInjector,
    )
    from repro.monitoring.collectors import PeriodicCollector
    from repro.telecom.aging import NaturalAgingProcess

    watched = [
        (NaturalAgingProcess, "_leak"),
        (NaturalAgingProcess, "_collect"),
        (MemoryLeakInjector, "_act"),
        (StateCorruptionInjector, "_act"),
        (IntermittentErrorInjector, "_act"),
        (ProcessHangInjector, "_hang"),
        (OverloadInjector, "_ramp"),
        (PeriodicCollector, "_sample"),
        (MEACycle, "_cycle"),
        (PFMController, "_housekeeping"),
        (CheckpointStore, "save"),  # the repair measurement's checkpoints
    ] + [
        (cls, "_activate")
        for cls in (
            MonitoringDropoutInjector,
            ObservationCorruptionInjector,
            PredictorFaultInjector,
            PredictorLatencyInjector,
            ActionFailureInjector,
        )
    ]
    with pytest.MonkeyPatch.context() as patch:
        for cls, name in watched:
            patch.setattr(cls, name, watch(cls, name))
        for scenario in SCENARIOS.values():
            scenario(SEEDS[0], trained)
    assert reached == {f"{cls.__name__}.{name}" for cls, name in watched}
