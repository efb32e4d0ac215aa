"""Event sinks: where emitted telemetry goes.

A sink is anything with ``write(event)``.  Two are provided:

- :class:`NullSink` -- drops everything (the disabled-mode default),
- :class:`MemorySink` -- buffers events in a list (tests, exporters).

Files are written after the run by the exporters
(:func:`~repro.telemetry.exporters.export_jsonl`) and the fleet tracer.
"""

from __future__ import annotations

from repro.telemetry.events import TelemetryEvent


class NullSink:
    """Swallow every event."""

    __slots__ = ()

    def write(self, event: TelemetryEvent) -> None:
        pass


#: Shared instance used by disabled hubs.
NULL_SINK = NullSink()


class MemorySink:
    """Keep every event in order in ``events``."""

    def __init__(self) -> None:
        self.events: list[TelemetryEvent] = []

    def write(self, event: TelemetryEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)
