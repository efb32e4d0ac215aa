"""The telemetry hub: one sim-time-aware event bus + metrics + spans.

The hub is the single object instrumented code talks to.  It owns

- a **clock** (bound to the DES engine's ``now`` by whoever wires the
  run, so every event and span is keyed by *simulated* time),
- the **metrics registry** (counters / gauges / histograms),
- the **span stack** (nested sim+wall timing records), and
- the **sinks** events are published to.

Instrumentation must cost nothing when nobody is listening, so the
module-level :data:`NULL_HUB` (``enabled=False``, :class:`NullSink`) is
the default everywhere: ``emit`` returns immediately, ``span`` returns
the shared :data:`~repro.telemetry.spans.NULL_SPAN`, and the instrument
accessors return the shared no-op instrument -- the disabled hot path
performs no allocation and no I/O.

An enabled hub whose sinks all drop events (a fleet shard's hub outside
a trace capture) still keeps its metrics and counts what it publishes in
:attr:`TelemetryHub.published_events`, but builds no event record and
no span field dict.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.telemetry.events import SPAN, TelemetryEvent
from repro.telemetry.metrics import (
    NULL_INSTRUMENT,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.sinks import NULL_SINK, MemorySink, NullSink
from repro.telemetry.spans import ERROR, NULL_SPAN, Span


def _zero_clock() -> float:
    """Default clock before binding (module-level so hubs pickle)."""
    return 0.0


class _SpanContext:
    """Context manager that opens a span on enter and closes it on exit."""

    __slots__ = ("hub", "name", "attributes", "span")

    def __init__(self, hub: "TelemetryHub", name: str, attributes: dict) -> None:
        self.hub = hub
        self.name = name
        self.attributes = attributes
        self.span: Span | None = None

    def __enter__(self) -> Span:
        self.span = self.hub._open_span(self.name, self.attributes)
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and self.span.status == "ok":
            self.span.status = ERROR
            self.span.annotate(error_type=exc_type.__name__)
        self.hub._close_span(self.span)
        return False


class TelemetryHub:
    """Event bus, metrics registry and span tracker for one run.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current *simulated* time.
        Usually bound after construction via :meth:`bind_clock` once the
        simulation engine exists.
    sink:
        Where events go: anything with ``write(event)``.  Defaults to a
        fresh :class:`MemorySink` for enabled hubs (so exporters can read
        the run back) and the shared :class:`NullSink` for disabled ones.
    enabled:
        A disabled hub is a pure no-op; see :data:`NULL_HUB`.
    keep_spans:
        Whether finished spans are retained on :attr:`finished_spans`
        (the profiling exporters read them; disable for unbounded runs).
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        sink=None,
        enabled: bool = True,
        keep_spans: bool = True,
        reservoir_size: int = 256,
    ) -> None:
        self.enabled = enabled
        self.clock: Callable[[], float] = clock or _zero_clock
        self._clock_bound = clock is not None
        if sink is None:
            sink = MemorySink() if enabled else NULL_SINK
        self.sinks = [sink]
        #: Whether any sink keeps events; when none does, no event is built.
        self._recording = not isinstance(sink, NullSink)
        #: Events published so far (``emit`` calls plus closed spans),
        #: whether or not a sink kept them.
        self.published_events = 0
        self.registry = MetricsRegistry(reservoir_size=reservoir_size)
        self.keep_spans = keep_spans
        self.finished_spans: list[Span] = []
        self._span_stack: list[Span] = []
        self._next_span_id = 1
        #: span name -> its (span_wall_seconds, span_sim_seconds) pair.
        self._span_histograms: dict[str, tuple[Histogram, Histogram]] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Attach the simulated clock (idempotent; no-op when disabled).

        The first binding wins so one hub observing one engine cannot be
        silently re-pointed by a second controller sharing it.
        """
        if not self.enabled or self._clock_bound:
            return
        self.clock = clock
        self._clock_bound = True

    def add_sink(self, sink) -> None:
        """Publish later events to an additional sink (``write(event)``).

        Ignored by a disabled hub, which publishes nothing.
        """
        if not self.enabled:
            return
        self.sinks.append(sink)
        self._recording = self._recording or not isinstance(sink, NullSink)

    @property
    def now(self) -> float:
        """Current simulated time as the hub sees it."""
        return self.clock()

    @property
    def events(self) -> list[TelemetryEvent]:
        """Events captured by the first memory sink (empty otherwise)."""
        for sink in self.sinks:
            if isinstance(sink, MemorySink):
                return sink.events
        return []

    # ------------------------------------------------------------------
    # Event bus
    # ------------------------------------------------------------------

    def emit(self, name: str, **fields: Any) -> None:
        """Publish one event at the current simulated time."""
        if not self.enabled:
            return
        self.published_events += 1
        if not self._recording:
            return
        if self._span_stack:
            fields.setdefault("span_id", self._span_stack[-1].span_id)
        event = TelemetryEvent(time=self.clock(), name=name, fields=fields)
        for sink in self.sinks:
            sink.write(event)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------

    def counter(self, name: str, **labels) -> Counter:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels) -> Gauge:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels) -> Histogram:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        return self.registry.histogram(name, **labels)

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a nested span: ``with hub.span("mea.cycle") as s: ...``."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanContext(self, name, attributes)

    @property
    def current_span(self) -> Span | None:
        """The innermost open span, if any."""
        return self._span_stack[-1] if self._span_stack else None

    def _open_span(self, name: str, attributes: dict) -> Span:
        parent = self._span_stack[-1] if self._span_stack else None
        span = Span(
            name=name,
            span_id=self._next_span_id,
            parent_id=parent.span_id if parent else None,
            sim_start=self.clock(),
            # The *wall* half of the span's dual sim/wall accounting;
            # results never depend on it.
            wall_start=time.perf_counter(),  # pfmlint: disable=PFM002 -- wall half
            attributes=dict(attributes),
        )
        self._next_span_id += 1
        self._span_stack.append(span)
        return span

    def _close_span(self, span: Span) -> None:
        span.sim_end = self.clock()
        span.wall_end = time.perf_counter()  # pfmlint: disable=PFM002 -- wall half
        # Close any dangling children first (a step that escaped via an
        # exception still yields well-formed nesting).
        while self._span_stack and self._span_stack[-1] is not span:
            self._span_stack.pop()
        if self._span_stack:
            self._span_stack.pop()
        if self.keep_spans:
            self.finished_spans.append(span)
        histograms = self._span_histograms.get(span.name)
        if histograms is None:
            histograms = self._span_histograms[span.name] = (
                self.registry.histogram("span_wall_seconds", span=span.name),
                self.registry.histogram("span_sim_seconds", span=span.name),
            )
        histograms[0].observe(span.wall_duration)
        histograms[1].observe(span.sim_duration)
        self.published_events += 1
        if not self._recording:
            return
        event = TelemetryEvent(
            time=span.sim_end, name=SPAN, fields=span.to_fields()
        )
        for sink in self.sinks:
            sink.write(event)

    def spans_named(self, name: str) -> list[Span]:
        """Finished spans with the given name, in completion order."""
        return [span for span in self.finished_spans if span.name == name]


#: The global disabled hub: the default `telemetry` value everywhere.
NULL_HUB = TelemetryHub(enabled=False, sink=NULL_SINK, keep_spans=False)
