"""Hub semantics: sim-time events, span nesting under the DES clock, and
the no-op guarantees of the disabled hub."""

import pytest

from repro.simulator import Engine
from repro.telemetry import MemorySink, TelemetryHub
from repro.telemetry.hub import NULL_HUB
from repro.telemetry.sinks import NULL_SINK
from repro.telemetry.spans import NULL_SPAN


class TestEventBus:
    def test_events_carry_simulated_time(self):
        engine = Engine()
        hub = TelemetryHub()
        hub.bind_clock(lambda: engine.now)

        engine.schedule(0.0, lambda: hub.emit("tick", n=1))
        engine.schedule(60.0, lambda: hub.emit("tick", n=2))
        engine.run()
        assert [e.time for e in hub.events] == [0.0, 60.0]
        assert hub.events[1].fields == {"n": 2}

    def test_first_clock_binding_wins(self):
        hub = TelemetryHub()
        hub.bind_clock(lambda: 10.0)
        hub.bind_clock(lambda: 99.0)
        assert hub.now == 10.0

    def test_events_inside_span_carry_span_id(self):
        hub = TelemetryHub()
        with hub.span("outer") as span:
            hub.emit("inner-event")
        assert hub.events[0].fields["span_id"] == span.span_id

    def test_extra_sinks_receive_events(self):
        extra = MemorySink()
        hub = TelemetryHub()
        hub.add_sink(extra)
        hub.emit("e")
        assert len(extra.events) == 1


class TestSpanNesting:
    def test_nested_spans_record_parent_and_sim_duration(self):
        engine = Engine()
        hub = TelemetryHub()
        hub.bind_clock(lambda: engine.now)

        cycle_span = hub.span("cycle")
        step_span = hub.span("step")

        def open_spans() -> None:
            cycle = cycle_span.__enter__()
            step = step_span.__enter__()
            engine.schedule(30.0, lambda: close_step(cycle, step))

        def close_step(cycle, step) -> None:
            step_span.__exit__(None, None, None)
            assert step.parent_id == cycle.span_id
            engine.schedule(15.0, lambda: cycle_span.__exit__(None, None, None))

        engine.schedule(0.0, open_spans)
        engine.run()
        cycle = hub.spans_named("cycle")[0]
        step = hub.spans_named("step")[0]
        assert step.sim_duration == 30.0
        assert cycle.sim_duration == 45.0
        assert cycle.parent_id is None
        # Closing publishes a span event at the span's sim end time.
        span_events = [e for e in hub.events if e.name == "span"]
        assert [e.fields["name"] for e in span_events] == ["step", "cycle"]
        assert span_events[1].time == 45.0

    def test_exception_marks_span_error(self):
        hub = TelemetryHub()
        with pytest.raises(ValueError):
            with hub.span("boom"):
                raise ValueError("nope")
        span = hub.spans_named("boom")[0]
        assert span.status == "error"
        assert span.attributes["error_type"] == "ValueError"

    def test_span_durations_feed_histograms(self):
        hub = TelemetryHub()
        with hub.span("work"):
            pass
        hist = hub.registry.histogram("span_wall_seconds", span="work")
        assert hist.count == 1

    def test_manual_status_assignment_survives(self):
        hub = TelemetryHub()
        with hub.span("step") as span:
            span.status = "timeout"
            span.annotate(budget=5.0)
        closed = hub.spans_named("step")[0]
        assert closed.status == "timeout"
        assert closed.attributes == {"budget": 5.0}


class TestNullHub:
    def test_disabled_hub_shares_singletons(self):
        assert NULL_HUB.span("a") is NULL_SPAN
        assert NULL_HUB.span("b") is NULL_SPAN
        assert NULL_HUB.counter("x") is NULL_HUB.gauge("y")
        assert NULL_HUB.counter("x") is NULL_HUB.histogram("z")

    def test_disabled_hub_records_nothing(self):
        NULL_HUB.emit("event", a=1)
        with NULL_HUB.span("s") as span:
            span.status = "error"
            span.annotate(k=1)
        NULL_HUB.counter("c").inc()
        assert NULL_HUB.events == []
        assert NULL_HUB.finished_spans == []
        assert len(NULL_HUB.registry) == 0
        assert NULL_HUB.sinks == [NULL_SINK]

    def test_disabled_hub_ignores_clock_binding(self):
        NULL_HUB.bind_clock(lambda: 123.0)
        assert NULL_HUB.now == 0.0
