"""Each fault kind, injected alone, must drive the SCP into SLA failure --
and the matching countermeasure must avert it.

This pins the whole injector -> component degradation -> queueing model ->
Eq. 2 SLA chain per fault family, plus the countermeasure coverage the
Fig. 7 classification promises.
"""

import pytest

from repro.simulator import Engine, RandomStreams
from repro.telecom import SCPConfig, SCPSystem
from repro.telecom.dataset import _make_injector

FAULT_KINDS = ["memory-leak", "process-hang", "state-corruption", "overload"]


def run_with_fault(kind, countermeasure=None, action_time=900.0, horizon=4_000.0):
    """One fault episode starting at t=600; optional countermeasure at
    ``action_time`` (what a lead-time-ahead warning would trigger)."""
    engine = Engine()
    streams = RandomStreams(17)
    system = SCPSystem(
        engine,
        streams,
        SCPConfig(enable_aging=False, n_containers=4, container_capacity=2),
    )
    target = system.containers[0]
    injector = _make_injector(kind, target, streams.get(f"fault:{kind}"))
    engine.schedule_at(600.0, lambda: injector.start(engine))
    if countermeasure is not None:
        engine.schedule_at(action_time, lambda: countermeasure(system))
    system.start()
    engine.run(until=horizon)
    system.sla.flush(horizon)
    return system


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_each_fault_kind_causes_failures(kind):
    system = run_with_fault(kind)
    assert len(system.failure_log) > 0, f"{kind} never breached the SLA"


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_failures_happen_after_injection(kind):
    system = run_with_fault(kind)
    assert min(system.failure_log.failure_times()) >= 600.0


@pytest.mark.parametrize(
    "kind,countermeasure,action_time",
    [
        # Clean-up recovers the leak before memory runs out.
        ("memory-leak", lambda s: s.cleanup_component("container-0", 1.0), 900.0),
        # Failover drains the hung container.
        (
            "process-hang",
            lambda s: s.migrate_load("container-0", "container-1", 1.0),
            900.0,
        ),
        # A restart clears latent corruption; the warning arrives shortly
        # before the breach (corruption accumulates slowly, so an early
        # restart would merely delay it).
        (
            "state-corruption",
            lambda s: s.restart_component("container-0", 30.0),
            2_700.0,
        ),
        # Admission control sheds the overload.
        ("overload", lambda s: s.set_admission_fraction(0.55), 900.0),
    ],
)
def test_matching_countermeasure_averts_failures(kind, countermeasure, action_time):
    unprotected = run_with_fault(kind)
    protected = run_with_fault(kind, countermeasure, action_time=action_time)
    assert len(protected.failure_log) < len(unprotected.failure_log)


def test_repeated_countermeasures_keep_leak_under_control():
    """A repeated clean-up (what the MEA cycle would do) beats a one-shot."""
    def repeated(system):
        def cleanup() -> None:
            system.cleanup_component("container-0", 0.9)
            system.engine.schedule(300.0, cleanup)

        system.engine.schedule(0.0, cleanup)

    protected = run_with_fault("memory-leak", repeated, horizon=6_000.0)
    assert len(protected.failure_log) == 0
