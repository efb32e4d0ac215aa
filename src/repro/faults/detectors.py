"""Error detection (the paper's Sect. 4.3 detection mechanisms).

"Detection mechanisms such as coding checks, replication checks, timing
checks or plausibility checks trigger the recovery."  The SCP runs a timing
check: it turns an observed response time above the deadline into a
*detected* error, i.e. an :class:`~repro.faults.model.ErrorRecord` with
``detected=True`` suitable for the error log.
"""

from __future__ import annotations

from repro.faults.model import ErrorRecord


class TimingCheck:
    """Flags observations (response times) above a deadline."""

    __slots__ = ("component", "deadline", "checks_run", "errors_found")

    #: Message id of the errors this check reports.
    message_id = 910

    def __init__(self, component: str, deadline: float) -> None:
        self.component = component
        self.deadline = deadline
        self.checks_run = 0
        self.errors_found = 0

    def check(self, time: float, observation: float) -> ErrorRecord | None:
        """Run the check; returns an error record when the deadline is missed."""
        self.checks_run += 1
        value = float(observation)
        if value > self.deadline:
            self.errors_found += 1
            return ErrorRecord(
                time=time,
                message_id=self.message_id,
                component=self.component,
                detected=True,
                message=f"deadline exceeded: {value:.4f} > {self.deadline:.4f}",
            )
        return None
