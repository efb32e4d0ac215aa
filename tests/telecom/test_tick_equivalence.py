"""Differential oracle: the flattened SCP tick is bit-identical to the
dict-based reference tick in ``tick_reference``.

Both runs simulate the same seed and script of countermeasures; every
output must match exactly, not within a tolerance.  CI runs this on
Python 3.10 and 3.12, whose builtin ``sum()`` of floats differ (3.12
compensates), so a tick that replaced ``sum()`` by a loop fails here.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telecom import Component, Tier
from repro.telecom.dataset import DatasetConfig, prepare_simulation

from . import tick_reference

HORIZON = 4 * 3600.0


def _script(run) -> None:
    """Countermeasures that reach every branch of the tick."""
    engine, system = run.engine, run.system
    names = [c.name for c in system.containers]

    def zero_weights() -> None:
        for name in names:
            system.set_weight(name, 0.0)

    def restore_weights() -> None:
        for name in names:
            system.set_weight(name, 1.0)

    def all_down() -> None:
        for name in names:
            system.restart_component(name, 240.0)

    def swap() -> None:
        container = system.containers[2]
        container.leak_memory(0.62 * container.memory_mb)

    engine.schedule_at(1_800.0, lambda: system.restart_component(names[1], 120.0))
    engine.schedule_at(2_400.0, swap)
    engine.schedule_at(3_000.0, lambda: system.set_admission_fraction(0.6))
    engine.schedule_at(4_200.0, lambda: system.set_admission_fraction(1.0))
    engine.schedule_at(4_500.0, lambda: system.migrate_load(names[0], names[3], 0.5))
    engine.schedule_at(6_000.0, zero_weights)
    engine.schedule_at(7_200.0, restore_weights)
    engine.schedule_at(9_000.0, all_down)
    engine.schedule_at(10_200.0, lambda: system.cleanup_component(names[2]))


def _renumber_faults(records: list) -> list:
    """Fault ids come from a process-wide counter: number them per run."""
    ids: dict = {None: None}
    return [
        replace(r, fault_id=ids.setdefault(r.fault_id, len(ids))) for r in records
    ]


def _simulate() -> dict:
    run = prepare_simulation(DatasetConfig(seed=11, horizon=HORIZON))
    _script(run)
    dataset = run.run()
    system, store = run.system, dataset.store
    return {
        "windows": list(system.sla.windows),
        "failures": system.failure_log.records,
        "errors": _renumber_faults(system.error_log.records),
        "series": {
            v: (store.series(v).times.tobytes(), store.series(v).values.tobytes())
            for v in store.variables
        },
        "ticks_run": system.ticks_run,
        "processed_events": run.engine.processed_events,
        "rejected_requests": system.rejected_requests,
        "last": (
            system.last_request_rate,
            system.last_mean_rt,
            system.last_violation_prob,
        ),
        "components": [
            (c.utilization, c.last_stretch, c.leaked_mb, c.restarts)
            for c in system.all_components()
        ],
    }


@pytest.fixture(scope="module")
def runs():
    with pytest.MonkeyPatch.context() as patch:
        tick_reference.install(patch)
        reference = _simulate()
    return reference, _simulate()


class TestTickEquivalence:
    def test_scenario_reaches_every_branch(self, runs):
        reference, _ = runs
        assert reference["rejected_requests"] > 0  # admission control
        assert len(reference["failures"]) > 0  # incl. the all-down window
        assert any(e.severity == 2 for e in reference["errors"])  # timing check
        swap = np.frombuffer(reference["series"]["container-2.swap_activity"][1])
        assert swap.max() > 0

    def test_sla_windows_identical(self, runs):
        reference, current = runs
        assert current["windows"] == reference["windows"]

    def test_failure_and_error_logs_identical(self, runs):
        reference, current = runs
        assert current["failures"] == reference["failures"]
        assert current["errors"] == reference["errors"]

    def test_store_series_bytes_identical(self, runs):
        reference, current = runs
        assert list(current["series"]) == list(reference["series"])
        for variable, data in reference["series"].items():
            assert current["series"][variable] == data, variable

    def test_counters_and_gauges_identical(self, runs):
        reference, current = runs
        for key in (
            "ticks_run",
            "processed_events",
            "rejected_requests",
            "last",
            "components",
        ):
            assert current[key] == reference[key], key
        assert current["ticks_run"] == int(HORIZON / 5.0) + 1


def _component(cls, state) -> Component:
    tier, capacity, service_time, memory = state["shape"]
    component = cls(
        name="c", tier=tier, capacity=capacity,
        service_time=service_time, memory_mb=memory,
    )
    component.leak_memory(state["leak"] * memory)
    component.degrade_capacity(state["degraded"])
    component.corrupt_state(state["corruption"])
    component.add_background_load(state["background"])
    if state["restarting"]:
        component.begin_restart(0.0, 60.0)
    return component


# Hypothesis favours round floats, on which reordered arithmetic often
# rounds the same; millionths reach the values where it does not.
_fraction = st.floats(0.0, 1.0) | st.integers(0, 10**6).map(lambda k: k / 10**6)

component_states = st.fixed_dictionaries(
    {
        "shape": st.sampled_from(
            [
                (Tier.FRONTEND, 8, 0.005, 2_048.0),
                (Tier.SERVICE_LOGIC, 2, 0.020, 4_096.0),
                (Tier.SERVICE_LOGIC, 10, 0.020, 4_096.0),
                (Tier.SERVICE_LOGIC, 3, 0.017, 3_000.0),
                (Tier.DATABASE, 16, 0.010, 8_192.0),
            ]
        ),
        "leak": _fraction,
        "degraded": _fraction,
        "corruption": _fraction.map(lambda f: 2.0 * f),
        "background": _fraction.map(lambda f: 500.0 * f),
        "restarting": st.booleans(),
        "demand": st.just(0.0)
        | st.integers(0, 5_000)
        | _fraction.map(lambda f: 5_000.0 * f),
        "numpy_demand": st.booleans(),
        "dt": st.sampled_from([5.0, 1.0, 0.5, 60.0]),
    }
)


class TestStretchFactorProperties:
    @given(component_states)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_exactly(self, state):
        current = _component(Component, state)
        reference = _component(tick_reference.ReferenceComponent, state)
        demand = state["demand"]
        if state["numpy_demand"]:
            demand = np.float64(demand)
        got = current.stretch_factor(demand, state["dt"])
        want = reference.stretch_factor(demand, state["dt"])
        assert (got, type(got)) == (want, type(want))
        for name in (
            "utilization",
            "last_stretch",
            "swap_activity",
            "memory_free_mb",
            "memory_used_mb",
            "free_fraction",
            "effective_capacity",
        ):
            value, expected = getattr(current, name), getattr(reference, name)
            assert (value, type(value)) == (expected, type(expected)), name
