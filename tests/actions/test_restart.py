import pytest

from repro.actions import PreventiveRestartAction
from repro.errors import ConfigurationError


class TestPreventiveRestart:
    def test_forces_short_downtime(self, scp):
        action = PreventiveRestartAction(restart_duration=45.0)
        container = scp.containers[0]
        container.leak_memory(800.0)
        outcome = action.execute(scp, "container-0")
        assert outcome.success
        assert outcome.details["forced"]
        assert container.restarting_until == pytest.approx(scp.engine.now + 45.0)

    def test_state_clean_after_restart(self, scp):
        container = scp.containers[0]
        container.leak_memory(800.0)
        container.corrupt_state(1.0)
        PreventiveRestartAction(restart_duration=30.0).execute(scp, "container-0")
        scp.engine.run(until=scp.engine.now + 60.0)
        assert container.leaked_mb == 0.0
        assert container.corruption == 0.0

    def test_not_applicable_while_restarting(self, scp):
        scp.restart_component("container-0", 100.0)
        assert not PreventiveRestartAction().applicable(scp, "container-0")

    def test_never_takes_last_container_down(self, scp):
        for container in scp.containers[1:]:
            container.begin_restart(scp.engine.now, 1000.0)
        assert not PreventiveRestartAction().applicable(scp, "container-0")

    def test_database_restart_allowed_even_alone(self, scp):
        for container in scp.containers:
            container.begin_restart(scp.engine.now, 1000.0)
        assert PreventiveRestartAction().applicable(scp, "database")

    def test_rejects_bad_duration(self):
        with pytest.raises(ConfigurationError):
            PreventiveRestartAction(restart_duration=0.0)

