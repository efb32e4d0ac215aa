"""Downtime-avoidance actions: clean-up, failover, load lowering."""

import pytest

from repro.actions import (
    ActionCategory,
    LowerLoadAction,
    PreventiveFailoverAction,
    StateCleanupAction,
)
from repro.actions.load import RestoreLoadAction


class TestStateCleanup:
    def test_recovers_leak_without_downtime(self, scp):
        container = scp.containers[0]
        container.leak_memory(1000.0)
        action = StateCleanupAction(effectiveness=0.9)
        outcome = action.execute(scp, "container-0")
        assert outcome.success
        assert outcome.downtime_incurred == 0.0
        assert container.leaked_mb == pytest.approx(100.0)
        assert container.restarting_until is None

    def test_not_applicable_when_clean(self, scp):
        action = StateCleanupAction()
        scp.containers[0].leaked_mb = 0.0
        scp.containers[0].corruption = 0.0
        assert not action.applicable(scp, "container-0")

    def test_applicable_with_corruption(self, scp):
        scp.containers[0].corrupt_state(1.0)
        assert StateCleanupAction().applicable(scp, "container-0")

    def test_category(self):
        assert StateCleanupAction.category is ActionCategory.DOWNTIME_AVOIDANCE

    def test_outcome_details(self, scp):
        scp.containers[0].leak_memory(100.0)
        outcome = StateCleanupAction(effectiveness=1.0).execute(scp, "container-0")
        assert outcome.details["recovered_mb"] == pytest.approx(100.0)


class TestPreventiveFailover:
    def test_moves_weight_to_peer(self, scp):
        action = PreventiveFailoverAction(fraction=1.0)
        outcome = action.execute(scp, "container-0")
        assert outcome.success
        assert scp.weights["container-0"] == pytest.approx(0.0)
        moved_to = outcome.details["peer"]
        assert scp.weights[moved_to] == pytest.approx(2.0)

    def test_gradual_fraction(self, scp):
        PreventiveFailoverAction(fraction=0.5).execute(scp, "container-0")
        assert scp.weights["container-0"] == pytest.approx(0.5)

    def test_picks_least_loaded_peer(self, scp):
        scp.containers[1].utilization = 0.9
        scp.containers[2].utilization = 0.1
        outcome = PreventiveFailoverAction().execute(scp, "container-0")
        assert outcome.details["peer"] == "container-2"

    def test_not_applicable_without_peers(self, scp):
        for container in scp.containers[1:]:
            container.begin_restart(scp.engine.now, 1000.0)
        assert not PreventiveFailoverAction().applicable(scp, "container-0")

    def test_not_applicable_when_already_drained(self, scp):
        scp.set_weight("container-0", 0.0)
        assert not PreventiveFailoverAction().applicable(scp, "container-0")


class TestLowerLoad:
    def test_confidence_maps_to_admission(self):
        action = LowerLoadAction(min_admission=0.4)
        assert action.admission_for(0.0) == pytest.approx(1.0)
        assert action.admission_for(1.0) == pytest.approx(0.4)
        assert action.admission_for(0.5) == pytest.approx(0.7)

    def test_execute_applies_throttle(self, scp):
        action = LowerLoadAction(min_admission=0.5)
        action.set_confidence(1.0)
        outcome = action.execute(scp, "scp")
        assert outcome.success
        assert scp.admission_fraction == pytest.approx(0.5)

    def test_restore_load(self, scp):
        scp.set_admission_fraction(0.5)
        RestoreLoadAction().execute(scp, "scp")
        assert scp.admission_fraction == 1.0

    def test_execution_counter(self, scp):
        action = LowerLoadAction()
        action.execute(scp, "scp")
        action.execute(scp, "scp")
        assert action.executions == 2
