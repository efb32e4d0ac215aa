"""Record types for monitoring data."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EventSequence:
    """An event-driven temporal sequence of error events.

    This is the paper's "error sequence": the timestamps and message ids of
    all errors within a data window (Fig. 6).  Times are absolute.
    """

    times: np.ndarray
    message_ids: np.ndarray
    label: bool = False  # True for failure sequences
    origin: float = 0.0  # window start, for traceability

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(
            self, "message_ids", np.asarray(self.message_ids, dtype=int)
        )
        if self.times.shape != self.message_ids.shape:
            raise ValueError("times and message_ids must have equal length")

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def delays(self) -> np.ndarray:
        """Inter-event delays (first event measured from the window start)."""
        if self.times.size == 0:
            return np.empty(0)
        return np.diff(np.concatenate([[self.origin], self.times]))
