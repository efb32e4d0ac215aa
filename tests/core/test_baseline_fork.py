"""The closed loop's forked baseline equals a baseline simulated from the
start.

``run_closed_loop`` runs the PFM run first and, just before the
controller's first action, copies the simulation and finishes the copy
as the baseline; when no action comes, the PFM run is the baseline.  The
eval seeds below put the first action nowhere, early, in the middle and
late in a half-day run (train seed 11).
"""

from __future__ import annotations

import enum
import gc
import types

import numpy as np
import pytest

import repro.core.experiment as experiment
from repro.core.controller import PFMController
from repro.core.experiment import resolve_spec, run_closed_loop, train_spec
from repro.errors import SimulationError
from repro.fleet.spec import RunSpec
from repro.simulator.engine import copy_simulation
from repro.telecom.dataset import prepare_simulation

from ..simulator.test_process_equivalence import _system_state

HORIZON = 43_200.0

#: Eval seed -> where the first action comes, as a share of the horizon.
FIRST_ACTION = {3: None, 6: 0.03, 21: 0.23, 25: 0.63}


def _spec(seed: int) -> RunSpec:
    return RunSpec(seed=seed, train_seed=11, eval_seed=seed, horizon=HORIZON)


@pytest.fixture(scope="module")
def trained():
    return train_spec(_spec(21))


class _Spy:
    """Keeps the closed loop's PFM run and, if one is taken, its copy."""

    def __init__(self, monkeypatch, inspect=None) -> None:
        self.pfm = None
        self.copy = None
        self.fork_time = None
        self.inspect = inspect

        def prepare(config, monitor=None):
            self.pfm = prepare_simulation(config, monitor)
            return self.pfm

        def copy(state, leave_out=()):
            self.fork_time = state.engine.now
            self.copy = copy_simulation(state, leave_out)
            if self.inspect is not None:
                self.inspect(state, self.copy, leave_out)
            return self.copy

        monkeypatch.setattr(experiment, "prepare_simulation", prepare)
        monkeypatch.setattr(experiment, "copy_simulation", copy)


@pytest.mark.parametrize("seed", list(FIRST_ACTION))
def test_forked_baseline_equals_a_baseline_from_scratch(seed, trained, monkeypatch):
    spy = _Spy(monkeypatch)
    result = run_closed_loop(_spec(seed), trained=trained)
    monkeypatch.undo()

    share = FIRST_ACTION[seed]
    if share is None:
        assert spy.copy is None and result.actions_taken == 0
        forked = spy.pfm.system
    else:
        assert spy.fork_time / HORIZON == pytest.approx(share, abs=0.01)
        forked = spy.copy.system
    _, _, eval_config = resolve_spec(_spec(seed))
    scratch = prepare_simulation(eval_config, monitor=()).run().system

    want = _system_state(scratch)
    got = _system_state(forked)
    for key, value in want.items():
        assert got[key] == value, key
    assert result.baseline_failures == len(scratch.failure_log)
    assert (
        result.baseline_window_availability == scratch.sla.overall_availability()
    )


def _immutable(obj) -> bool:
    """Objects a copy may share with the original: values, and what
    pickle copies by reference (classes, functions, enum members)."""
    return obj is None or isinstance(
        obj,
        (
            str, bytes, int, float, complex, bool, tuple, frozenset,
            type, types.FunctionType, types.BuiltinFunctionType,
            types.ModuleType, types.CodeType, enum.Enum, np.dtype,
        ),
    )


def _reachable(*roots) -> dict[int, object]:
    """Every object reachable from ``roots``, stopping at classes,
    functions and modules (which reach the whole program)."""
    seen: dict[int, object] = {}
    todo = list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(
            obj,
            (type, types.FunctionType, types.BuiltinFunctionType, types.ModuleType),
        ):
            continue
        todo.extend(gc.get_referents(obj))
    return seen


def test_the_copy_shares_no_mutable_object_with_the_pfm_run(trained, monkeypatch):
    found = {}

    def inspect(pfm_run, copy, leave_out):
        controller, _mea, predictor, hub = leave_out
        assert isinstance(controller, PFMController)
        in_copy = _reachable(copy)
        in_pfm = _reachable(pfm_run, *leave_out)
        found["shared"] = [
            obj
            for key, obj in in_copy.items()
            if key in in_pfm and not _immutable(obj)
        ]
        found["left out"] = [
            type(obj).__name__
            for obj in (controller, predictor, hub)
            if id(obj) in in_copy
        ]
        found["copied objects"] = len(in_copy)

    _Spy(monkeypatch, inspect)
    run_closed_loop(_spec(21), trained=trained)
    assert found["copied objects"] > 1_000
    assert found["shared"] == []
    assert found["left out"] == []


def test_a_copy_that_cannot_be_taken_raises_out_of_the_closed_loop(
    trained, monkeypatch
):
    """The fork runs inside the MEA act step, which absorbs a step's
    exceptions; a failed copy must end the run instead of dropping the
    action."""

    def prepare(config, monitor=None):
        run = prepare_simulation(config, monitor)
        report = run.system.failure_log.report
        run.system.sla.on_failure = lambda record: report(record)
        return run

    monkeypatch.setattr(experiment, "prepare_simulation", prepare)
    with pytest.raises(SimulationError, match="cannot copy the simulation"):
        run_closed_loop(_spec(21), trained=trained)


def test_the_copy_refuses_what_it_must_leave_out(trained):
    """An object of a left-out type that the simulation reaches raises."""
    _, _, eval_config = resolve_spec(_spec(21))
    run = prepare_simulation(eval_config, monitor=())
    predictor, _ = trained
    controller = PFMController(
        system=run.system, predictor=predictor, variables=["cpu_utilization"]
    )
    run.system.sla.on_failure = controller._act
    with pytest.raises(SimulationError, match="a PFMController is left out"):
        copy_simulation(run, leave_out=(controller,))


def test_the_copy_leaves_out_pending_events_of_left_out_objects(trained):
    """The controller's pending events stay behind; the rest fire alike."""
    _, _, eval_config = resolve_spec(_spec(21))
    run = prepare_simulation(eval_config, monitor=())
    predictor, _ = trained
    controller = PFMController(
        system=run.system, predictor=predictor, variables=["cpu_utilization"]
    )
    controller.start()
    run.system.start()
    run.engine.run(until=600.0)
    pending = run.engine.pending_events
    copy = copy_simulation(run, leave_out=(controller, controller.mea))
    # The MEA cycle's and the housekeeping's next firings.
    assert copy.engine.pending_events == pending - 2
    assert copy.engine.now == run.engine.now
    controller.mea.stop()
    run.engine.run(until=3_600.0)
    copy.engine.run(until=3_600.0)
    assert _system_state(copy.system) == _system_state(run.system)
