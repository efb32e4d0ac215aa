"""Preventive failover (downtime avoidance).

"Preventive failover techniques perform a preventive switch to some spare
hardware or software unit.  Several variants exist, one of which is
failure prediction-driven load balancing accomplishing gradual 'failover'
from a failure-prone to failure-free component."

The implementation does exactly the gradual variant: it shifts the
failure-prone container's load-balancer weight onto the healthiest peer.
"""

from __future__ import annotations

from repro.actions.base import Action, ActionCategory, ActionOutcome
from repro.telecom.system import SCPSystem


class PreventiveFailoverAction(Action):
    """Gradual load migration away from a failure-prone container."""

    name = "preventive-failover"
    category = ActionCategory.DOWNTIME_AVOIDANCE
    cost = 1.0
    complexity = 1.5
    success_probability = 0.8

    def __init__(self, fraction: float = 1.0, **kwargs) -> None:
        super().__init__(**kwargs)
        self.fraction = fraction

    def _best_peer(self, system: SCPSystem, target: str):
        peers = [
            c
            for c in system.containers
            if c.name != target and c.restarting_until is None
        ]
        if not peers:
            return None
        # Healthiest = lowest utilization with ample free memory.
        return min(peers, key=lambda c: (c.utilization, -c.memory_free_mb))

    def applicable(self, system: SCPSystem, target: str) -> bool:
        """Needs remaining weight on the target and a live peer to take it."""
        if target not in system.weights or system.weights[target] <= 0:
            return False
        return self._best_peer(system, target) is not None

    def execute(self, system: SCPSystem, target: str) -> ActionOutcome:
        """Shift the configured weight fraction to the healthiest peer."""
        peer = self._best_peer(system, target)
        if peer is None:
            return self._outcome(system, target, success=False, reason="no spare peer")
        moved = system.weights[target] * self.fraction
        system.migrate_load(target, peer.name, self.fraction)
        # Migration succeeds if the peer has headroom for the extra load.
        success = peer.utilization < 0.75
        return self._outcome(
            system,
            target,
            success=bool(success),
            moved_weight=moved,
            peer=peer.name,
        )

