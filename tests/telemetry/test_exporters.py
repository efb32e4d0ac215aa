"""Exporter golden-file tests: JSONL trace, Prometheus text, run summary."""

from repro.simulator import Engine
from repro.telemetry import (
    TelemetryHub,
    export_jsonl,
    prometheus_text,
    read_jsonl,
    run_summary,
    scrub_wall_fields,
    span_profile,
)


def _sample_hub() -> TelemetryHub:
    """A deterministic little run: 2 cycles, some metrics, one event."""
    engine = Engine()
    hub = TelemetryHub()
    hub.bind_clock(lambda: engine.now)

    def cycle(i: int) -> None:
        span = hub.span("cycle", iteration=i)
        span.__enter__()
        hub.counter("cycles_total").inc()
        engine.schedule(30.0, lambda: end_cycle(span, i))

    def end_cycle(span, i: int) -> None:
        span.__exit__(None, None, None)
        if i + 1 < 2:
            cycle(i + 1)
            return
        hub.emit("run.end", cycles=2)
        hub.gauge("depth").set(1.5)
        hub.histogram("latency").observe(0.0)
        hub.histogram("latency").observe(1.0)

    engine.schedule(0.0, lambda: cycle(0))
    engine.run()
    return hub


class TestJSONL:
    def test_trace_round_trips_ordered_by_sim_time(self, tmp_path):
        hub = _sample_hub()
        path = tmp_path / "trace.jsonl"
        count = export_jsonl(hub, path)
        rows = read_jsonl(path)
        assert count == len(rows) == 3  # two span events + run.end
        assert [row["t"] for row in rows] == sorted(row["t"] for row in rows)
        assert rows[0] == {
            "event": "span",
            "t": 30.0,
            "name": "cycle",
            "span_id": 1,
            "parent_id": None,
            "sim_start": 0.0,
            "sim_duration": 30.0,
            "wall_ms": rows[0]["wall_ms"],
            "status": "ok",
            "attrs": {"iteration": 0},
        }
        assert rows[2]["event"] == "run.end"
        assert rows[2]["cycles"] == 2

    def test_lines_are_stable_json(self, tmp_path):
        hub = _sample_hub()
        path = tmp_path / "trace.jsonl"
        export_jsonl(hub, path)
        for line in path.read_text().splitlines():
            # sort_keys guarantees deterministic field order per line.
            assert line.index('"event"') < line.index('"t"')


class TestDeterministicExport:
    def test_deterministic_mode_yields_identical_bytes(self, tmp_path):
        """Two identical runs differ only in span ``wall_ms``; the
        deterministic mode zeroes it so the exported files byte-match."""
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        export_jsonl(_sample_hub(), first, deterministic=True)
        export_jsonl(_sample_hub(), second, deterministic=True)
        assert first.read_bytes() == second.read_bytes()

    def test_wall_fields_zeroed_sim_time_retained(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        export_jsonl(_sample_hub(), path, deterministic=True)
        rows = read_jsonl(path)
        spans = [row for row in rows if row["event"] == "span"]
        assert spans
        assert all(row["wall_ms"] == 0.0 for row in spans)
        assert all(row["sim_duration"] == 30.0 for row in spans)
        # Record shape is unchanged (zeroed, not dropped).
        plain = path.parent / "plain.jsonl"
        export_jsonl(_sample_hub(), plain)
        default = read_jsonl(plain)
        assert [sorted(row) for row in rows] == [sorted(row) for row in default]

    def test_scrub_wall_fields_helper(self):
        record = {"t": 5.0, "wall_ms": 3.2, "some_wall_s": 1.0, "x": "y"}
        scrubbed = scrub_wall_fields(record)
        assert scrubbed == {"t": 5.0, "wall_ms": 0.0, "some_wall_s": 0.0, "x": "y"}
        assert record["wall_ms"] == 3.2  # input untouched


class TestPrometheusText:
    def test_golden_counter_and_gauge_lines(self):
        hub = _sample_hub()
        text = prometheus_text(hub)
        assert "# TYPE cycles_total counter\ncycles_total 2\n" in text
        assert "# TYPE depth gauge\ndepth 1.5\n" in text

    def test_golden_summary_block(self):
        hub = _sample_hub()
        text = prometheus_text(hub)
        expected = (
            "# TYPE latency summary\n"
            'latency{quantile="0.5"} 0.5\n'
            'latency{quantile="0.9"} 0.9\n'
            'latency{quantile="0.99"} 0.99\n'
            "latency_sum 1\n"
            "latency_count 2\n"
        )
        assert expected in text

    def test_span_histograms_exported_with_labels(self):
        text = prometheus_text(_sample_hub())
        assert 'span_sim_seconds_count{span="cycle"} 2' in text


class TestSpanProfile:
    def test_profile_totals_both_clocks(self):
        hub = _sample_hub()
        profile = span_profile(hub)
        assert profile["cycle"]["count"] == 2
        assert profile["cycle"]["sim_seconds"] == 60.0
        assert profile["cycle"]["errors"] == 0
        assert profile["cycle"]["wall_seconds"] >= 0.0


class TestRunSummary:
    def test_summary_mentions_every_section(self):
        report = run_summary(_sample_hub(), title="golden")
        assert report.startswith("=== golden ===")
        assert "cycles_total = 2" in report
        assert "depth = 1.5000" in report
        assert "latency" in report
        assert "span profile" in report
        # Span-duration histograms stay out of the histogram section --
        # they are presented via the span profile table instead.
        assert "span_wall_seconds" not in report
