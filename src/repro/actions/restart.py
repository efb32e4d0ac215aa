"""Preventive restart / rejuvenation (downtime minimization).

"Preventive restart intentionally brings the system down for restart
turning unplanned downtime into forced downtime, which is expected to be
shorter (fail fast policy)."
"""

from __future__ import annotations

from repro.actions.base import Action, ActionCategory, ActionOutcome
from repro.errors import ConfigurationError
from repro.telecom.system import SCPSystem


class PreventiveRestartAction(Action):
    """Forced, short restart of a failure-prone component."""

    name = "preventive-restart"
    category = ActionCategory.DOWNTIME_MINIMIZATION
    cost = 1.5
    complexity = 1.0
    success_probability = 0.95

    def __init__(self, restart_duration: float = 60.0, **kwargs) -> None:
        super().__init__(**kwargs)
        if restart_duration <= 0:
            raise ConfigurationError("restart_duration must be positive")
        self.restart_duration = restart_duration

    def applicable(self, system: SCPSystem, target: str) -> bool:
        """Refuse when the target is already restarting or is the last container up."""
        component = system.component(target)
        # Restarting a component that is already restarting helps nobody.
        if component.restarting_until is not None:
            return False
        # Don't take the last healthy container down.
        peers_up = [
            c
            for c in system.containers
            if c.name != target and c.restarting_until is None
        ]
        return bool(peers_up) or component.tier.value != "service-logic"

    def execute(self, system: SCPSystem, target: str) -> ActionOutcome:
        """Force a short restart of the target (downtime = restart_duration)."""
        system.restart_component(target, self.restart_duration)
        return self._outcome(
            system,
            target,
            success=True,
            downtime=self.restart_duration,
            forced=True,
        )

