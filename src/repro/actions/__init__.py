"""Prediction-driven countermeasures (paper Sect. 4, Fig. 7).

Two goals, five action classes:

- **Downtime avoidance**: :class:`~repro.actions.cleanup.StateCleanupAction`,
  :class:`~repro.actions.failover.PreventiveFailoverAction`,
  :class:`~repro.actions.load.LowerLoadAction`;
- **Downtime minimization**:
  :class:`~repro.actions.checkpoint.PreparedRepairAction` (checkpointing /
  prepared recovery) and
  :class:`~repro.actions.restart.PreventiveRestartAction` (rejuvenation).

:mod:`~repro.actions.selection` implements the objective function trading
cost, prediction confidence, success probability and complexity.
"""

from repro.actions.base import (
    Action,
    ActionCategory,
    ActionOutcome,
)
from repro.actions.checkpoint import (
    Checkpoint,
    CheckpointStore,
    PreparedRepairAction,
    RepairTimeModel,
)
from repro.actions.cleanup import StateCleanupAction
from repro.actions.failover import PreventiveFailoverAction
from repro.actions.load import LowerLoadAction
from repro.actions.restart import PreventiveRestartAction
from repro.actions.selection import ActionSelector, SelectionContext

__all__ = [
    "Action",
    "ActionCategory",
    "ActionOutcome",
    "Checkpoint",
    "CheckpointStore",
    "PreparedRepairAction",
    "RepairTimeModel",
    "StateCleanupAction",
    "PreventiveFailoverAction",
    "LowerLoadAction",
    "PreventiveRestartAction",
    "ActionSelector",
    "SelectionContext",
]
