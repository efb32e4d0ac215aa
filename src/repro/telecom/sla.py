"""The failure definition of the case study -- Eq. 2.

"Specifications for the telecommunication system under investigation
require that within successive, non-overlapping five minutes intervals,
the fraction of calls having response time longer than 250ms must not
exceed 0.01%" -- i.e. four-nines *interval service availability*:

.. math::

    A_i = \\frac{\\#\\{requests \\le 250ms\\}}{\\#requests} \\ge 99.99\\%

A window violating this is a (performance) failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.faults.classification import CristianFailureMode
from repro.faults.model import FailureRecord


@dataclass(frozen=True)
class WindowStats:
    """Request accounting for one SLA window."""

    start: float
    end: float
    total_requests: int
    violations: int

    @property
    def interval_availability(self) -> float:
        """``A_i`` of Eq. 2 (1.0 for empty windows: no evidence of failure)."""
        if self.total_requests == 0:
            return 1.0
        return 1.0 - self.violations / self.total_requests

    def is_failure(self, required_availability: float) -> bool:
        return self.interval_availability < required_availability


class SLAChecker:
    """Accumulates request outcomes into fixed windows and flags failures.

    Parameters
    ----------
    window:
        Window length in seconds (the paper: 300 s).
    required_availability:
        Four nines by default (Eq. 2).
    deadline:
        Per-request response-time deadline in seconds (the paper: 0.250 s).
    on_failure:
        Optional callback receiving a :class:`FailureRecord` whenever a
        window violates the SLA.
    """

    __slots__ = (
        "window",
        "required_availability",
        "deadline",
        "on_failure",
        "_window_start",
        "_total",
        "_violations",
        "windows",
        "failures",
    )

    def __init__(
        self,
        window: float = 300.0,
        required_availability: float = 0.9999,
        deadline: float = 0.250,
        on_failure: Callable[[FailureRecord], None] | None = None,
    ) -> None:
        if window <= 0:
            raise ConfigurationError("window must be positive")
        if not 0 < required_availability <= 1:
            raise ConfigurationError("required_availability must be in (0, 1]")
        if deadline <= 0:
            raise ConfigurationError("deadline must be positive")
        self.window = window
        self.required_availability = required_availability
        self.deadline = deadline
        self.on_failure = on_failure or (lambda record: None)

        self._window_start = 0.0
        self._total = 0
        self._violations = 0
        self.windows: list[WindowStats] = []
        self.failures: list[FailureRecord] = []

    def record_batch(self, time: float, total: int, violations: int) -> None:
        """Account ``total`` requests of which ``violations`` missed the
        deadline, all falling at ``time``.

        Rolls windows forward as needed; times must be non-decreasing.
        """
        if violations > total:
            raise ConfigurationError("violations cannot exceed total")
        self._roll_to(time)
        self._total += total
        self._violations += violations

    def record_request(self, time: float, response_time: float) -> None:
        """Account a single request with its measured response time."""
        self.record_batch(time, 1, int(response_time > self.deadline))

    def flush(self, time: float) -> None:
        """Close any window ending at or before ``time``."""
        self._roll_to(time)

    def _roll_to(self, time: float) -> None:
        while time >= self._window_start + self.window:
            self._close_window()

    def _close_window(self) -> None:
        end = self._window_start + self.window
        stats = WindowStats(
            start=self._window_start,
            end=end,
            total_requests=self._total,
            violations=self._violations,
        )
        self.windows.append(stats)
        if stats.is_failure(self.required_availability):
            record = FailureRecord(
                time=end,
                mode=CristianFailureMode.TIMING,
                component="scp",
                duration=0.0,
                description=(
                    f"interval availability {stats.interval_availability:.6f} "
                    f"< {self.required_availability}"
                ),
            )
            self.failures.append(record)
            self.on_failure(record)
        self._window_start = end
        self._total = 0
        self._violations = 0

    # ------------------------------------------------------------------
    # Summary statistics
    # ------------------------------------------------------------------

    def availability_series(self) -> list[tuple[float, float]]:
        """``(window_end, A_i)`` for every closed window."""
        return [(w.end, w.interval_availability) for w in self.windows]

    def failure_count(self) -> int:
        return len(self.failures)

    def overall_availability(self) -> float:
        """Fraction of non-failed windows (service availability proxy)."""
        if not self.windows:
            return 1.0
        failed = sum(
            1 for w in self.windows if w.is_failure(self.required_availability)
        )
        return 1.0 - failed / len(self.windows)
