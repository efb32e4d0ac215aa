"""Event-driven logs: the error log and the failure log.

The error log is the input of detected-error-reporting predictors (HSMM,
DFT, event sets...); the failure log is both the input of failure-tracking
predictors and the label source for supervised training.
"""

from __future__ import annotations

import bisect
from collections import Counter
from typing import Iterator

from repro.faults.model import ErrorRecord, FailureRecord
from repro.monitoring.records import EventSequence


class ErrorLog:
    """Append-only log of detected errors, ordered by time."""

    __slots__ = ("_records", "_times")

    def __init__(self) -> None:
        self._records: list[ErrorRecord] = []
        self._times: list[float] = []

    def report(self, record: ErrorRecord) -> None:
        """Append a record (insertion keeps time order)."""
        idx = bisect.bisect_right(self._times, record.time)
        self._records.insert(idx, record)
        self._times.insert(idx, record.time)

    def window(self, start: float, end: float) -> list[ErrorRecord]:
        """Records with ``start <= time < end``."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        return self._records[lo:hi]

    def counts_by_message(self, start: float, end: float) -> Counter:
        """Histogram of message ids within the window."""
        return Counter(r.message_id for r in self.window(start, end))

    def rate(self, start: float, end: float) -> float:
        """Errors per time unit within the window."""
        if end <= start:
            return 0.0
        return len(self.window(start, end)) / (end - start)

    def message_vocabulary(self) -> list[int]:
        """Sorted list of all message ids seen."""
        return sorted({r.message_id for r in self._records})

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[ErrorRecord]:
        return iter(self._records)

    @property
    def records(self) -> list[ErrorRecord]:
        return list(self._records)


class FailureLog:
    """Append-only log of service-level failures."""

    __slots__ = ("_records", "_times")

    def __init__(self) -> None:
        self._records: list[FailureRecord] = []
        self._times: list[float] = []

    def report(self, record: FailureRecord) -> None:
        idx = bisect.bisect_right(self._times, record.time)
        self._records.insert(idx, record)
        self._times.insert(idx, record.time)

    def window(self, start: float, end: float) -> list[FailureRecord]:
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        return self._records[lo:hi]

    def any_failure_in(self, start: float, end: float) -> bool:
        """Whether a failure *starts* within ``[start, end)``."""
        return bool(self.window(start, end))

    def failure_times(self) -> list[float]:
        return list(self._times)

    def total_downtime(self) -> float:
        return sum(r.duration for r in self._records)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[FailureRecord]:
        return iter(self._records)

    @property
    def records(self) -> list[FailureRecord]:
        return list(self._records)


def error_window(
    log: ErrorLog, end: float, length: float, max_events: int = 200
) -> EventSequence:
    """The error sequence of ``[end - length, end)``: the last ``max_events``.

    The one window shape event predictors see, whether calibrated on a
    recorded trace (``TelecomDataset.panel_sequences``) or scored live
    (``OnlineEventScorer``, the controller's arbitration window).
    """
    start = end - length
    records = log.window(start, end)[-max_events:]
    return EventSequence(
        times=[r.time for r in records],
        message_ids=[r.message_id for r in records],
        origin=start,
    )
