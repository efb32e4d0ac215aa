"""Fleet distributed tracing: sidecars, merge order, renderers, report.

The scenario runner is module-level and registered at import time so
forked pool workers inherit it.  It drives its hub off a spec-derived
*simulated* clock, so with ``trace_deterministic=True`` the sidecar
bytes are a pure function of the spec.  That sidecars and aggregates
repeat across backends, chaos and tracing on real shards is checked by
``test_determinism_contract.py``.
"""

import json
import os

import pytest

from repro.faults.chaos import ChaosConfig
from repro.fleet import RunResult, RunSpec, grid, run_fleet
from repro.fleet.report import collect_report, render_html, render_markdown
from repro.fleet.shards import register_scenario_runner
from repro.resilience import RetryPolicy
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.tracing import (
    SUPERVISOR_LANE,
    TraceContext,
    active_trace,
    announce_shard_hub,
    derive_span_id,
    derive_trace_id,
    read_merged_trace,
    read_trace_file,
    safe_lane_name,
)
from tests.fleet.chaos_search import CLEAN_ATTEMPTS, transient_crash_config

TRACE_FAKE = "trace-fake"


def _fake_runner(spec: RunSpec) -> RunResult:
    hub = TelemetryHub() if spec.telemetry else None
    if hub is not None:
        now = [float(spec.seed)]
        hub.bind_clock(lambda: now[0])
        announce_shard_hub(hub)
        with hub.span("shard.work", seed=spec.seed):
            hub.emit("shard.tick", seed=spec.seed)
            now[0] += 1.0
            hub.counter("fake_ticks_total").inc()
    return RunResult(
        spec=spec,
        availability=0.9 + (spec.seed % 10) / 100.0,
        failures=spec.seed % 3,
        telemetry_events=len(hub.events) if hub is not None else 0,
        metrics_state=hub.registry.to_state() if hub is not None else None,
        wall_seconds=0.001 * spec.seed,
    )


register_scenario_runner(TRACE_FAKE, _fake_runner, overwrite=True)


def _specs(n=4, telemetry=True):
    return grid([TRACE_FAKE], seeds=range(1, 1 + n), telemetry=telemetry)


def _shard_files(trace_dir):
    shards = os.path.join(str(trace_dir), "shards")
    return sorted(os.listdir(shards)) if os.path.isdir(shards) else []


class TestDerivations:
    def test_trace_id_is_order_independent_and_stable(self):
        keys = [spec.key() for spec in _specs()]
        assert derive_trace_id(keys) == derive_trace_id(list(reversed(keys)))
        assert derive_trace_id(keys).startswith("fleet-")
        assert derive_trace_id(keys) != derive_trace_id(keys[:-1])

    def test_span_id_depends_on_both_inputs(self):
        a = derive_span_id("fleet-1", "k1")
        assert a == derive_span_id("fleet-1", "k1")
        assert a != derive_span_id("fleet-1", "k2")
        assert a != derive_span_id("fleet-2", "k1")

    def test_safe_lane_name(self):
        assert safe_lane_name("a:b/c d") == "a_b_c_d"

    def test_context_validation(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            TraceContext(trace_id="", root="/tmp/x")
        with pytest.raises(ConfigurationError):
            TraceContext(trace_id="t", root="")


class TestSidecarsAndMerge:
    def test_every_shard_gets_a_sidecar_and_lanes_link_up(self, tmp_path):
        specs = _specs()
        report = run_fleet(
            specs, backend="serial", trace_dir=str(tmp_path),
            trace_deterministic=True,
        )
        assert len(_shard_files(tmp_path)) == len(specs)
        trace = report.timing["trace"]
        assert trace["shards"] == len(specs)
        assert trace["trace_id"] == derive_trace_id(
            [spec.key() for spec in specs]
        )

        # The worker-side sidecar header and the parent-side supervisor
        # commit event derive the same parent span id independently.
        merged = read_merged_trace(str(tmp_path))
        committed = {
            doc["key"]: doc["span_id"]
            for doc in merged
            if doc["event"] == "fleet.shard_committed"
        }
        for spec in specs:
            key = spec.key()
            path = os.path.join(
                str(tmp_path), "shards", f"{safe_lane_name(key)}.jsonl"
            )
            meta, records = read_trace_file(path)
            assert meta["parent_span_id"] == committed[key]
            assert meta["attempt"] == 1
            assert meta["events"] == len(records) > 0

    def test_merge_order_is_time_then_lane_then_seq(self, tmp_path):
        run_fleet(
            _specs(), backend="serial", trace_dir=str(tmp_path),
            trace_deterministic=True,
        )
        merged = read_merged_trace(str(tmp_path))
        sort_keys = [
            (
                float(doc.get("t", 0.0)),
                "" if doc["lane"] == SUPERVISOR_LANE else doc["lane"],
                int(doc["seq"]),
            )
            for doc in merged
        ]
        assert sort_keys == sorted(sort_keys)
        assert merged[0]["event"] == "fleet.run_start"

    def test_telemetry_off_shards_get_header_only_sidecars(self, tmp_path):
        specs = _specs(telemetry=False)
        run_fleet(specs, backend="serial", trace_dir=str(tmp_path))
        files = _shard_files(tmp_path)
        assert len(files) == len(specs)
        for name in files:
            meta, records = read_trace_file(
                os.path.join(str(tmp_path), "shards", name)
            )
            assert meta["events"] == 0
            assert records == []

    def test_torn_sidecar_reads_as_its_intact_lines(self, tmp_path):
        """A crash that cuts a sidecar's last line short loses that line
        only, and the report still renders from the lanes."""
        spec = _specs(1)[0]
        run_fleet([spec], backend="serial", trace_dir=str(tmp_path))
        path = tmp_path / "shards" / f"{safe_lane_name(spec.key())}.jsonl"
        meta, records = read_trace_file(str(path))
        path.write_bytes(path.read_bytes()[:-5])
        assert read_trace_file(str(path)) == (meta, records[:-1])

        os.remove(tmp_path / "fleet_trace.jsonl")
        report = collect_report(trace_dir=str(tmp_path))
        assert report["shards"]

    def test_trace_context_cleared_in_parent_after_run(self, tmp_path):
        run_fleet(_specs(2), backend="serial", trace_dir=str(tmp_path))
        assert active_trace() is None


class TestDeterminism:
    def test_deterministic_mode_zeroes_wall_fields(self, tmp_path):
        specs = _specs(2)
        run_fleet(
            specs, backend="serial", trace_dir=str(tmp_path),
            trace_deterministic=True,
        )
        span_docs = [
            doc
            for doc in read_merged_trace(str(tmp_path))
            if doc["event"] == "span"
        ]
        assert span_docs
        assert all(doc["wall_ms"] == 0.0 for doc in span_docs)
        # Simulated time survives the scrub.
        assert any(doc["sim_duration"] == 1.0 for doc in span_docs)


class TestChaosOnTheTimeline:
    def test_quarantine_and_retry_are_supervisor_events(self, tmp_path):
        specs = grid([TRACE_FAKE], seeds=[1])
        report = run_fleet(
            specs,
            backend="serial",
            chaos=ChaosConfig(seed=0, crash_probability=1.0),
            retry=RetryPolicy(max_attempts=2),
            trace_dir=str(tmp_path),
        )
        assert len(report.quarantined) == 1
        merged = read_merged_trace(str(tmp_path))
        events = [doc["event"] for doc in merged]
        assert "fleet.chaos_armed" in events
        assert "fleet.retry" in events
        assert "fleet.quarantine" in events
        assert events[-1] != "fleet.run_start"  # run_end + chaos landed
        quarantine = next(
            doc for doc in merged if doc["event"] == "fleet.quarantine"
        )
        assert quarantine["key"] == specs[0].key()
        assert quarantine["attempts"] == 2


class TestChromeExport:
    def test_chrome_trace_shape(self, tmp_path):
        specs = _specs(3)
        run_fleet(
            specs, backend="serial", trace_dir=str(tmp_path),
            trace_deterministic=True,
        )
        with open(tmp_path / "fleet_trace.chrome.json", encoding="utf-8") as f:
            doc = json.load(f)
        events = doc["traceEvents"]
        names = {
            e["args"]["name"] for e in events if e["name"] == "process_name"
        }
        assert SUPERVISOR_LANE in names
        assert {spec.key() for spec in specs} <= names
        # Supervisor is pid 0; shard lanes are 1..N in sorted key order.
        pid_of = {
            e["args"]["name"]: e["pid"]
            for e in events
            if e["name"] == "process_name"
        }
        assert pid_of[SUPERVISOR_LANE] == 0
        assert sorted(
            pid for lane, pid in pid_of.items() if lane != SUPERVISOR_LANE
        ) == list(range(1, len(specs) + 1))
        spans = [e for e in events if e["ph"] == "X"]
        assert spans
        # Simulated seconds -> microseconds.
        assert all(e["dur"] == pytest.approx(1e6) for e in spans)
        instants = [e for e in events if e["ph"] == "i"]
        assert any(e["name"] == "shard.tick" for e in instants)


class TestRunReport:
    def test_report_renders_all_sections(self, tmp_path):
        specs = _specs()
        ledger = str(tmp_path / "ledger.jsonl")
        trace_dir = str(tmp_path / "trace")
        report = run_fleet(
            specs, backend="serial", trace_dir=trace_dir, ledger_path=ledger,
            trace_deterministic=True,
        )
        aggregate = json.loads(report.aggregate_json(include_recovery=True))
        data = collect_report(
            trace_dir=trace_dir,
            ledger_path=ledger,
            aggregate=aggregate,
            title="trace test run",
        )
        md = render_markdown(data)
        assert "# trace test run" in md
        assert "## Overview" in md
        assert "## Per-shard span profiles" in md
        assert "## Recovery timeline" in md
        assert "shard.work" in md
        html = render_html(data)
        assert html.startswith("<!DOCTYPE html>")
        assert "<table>" in html and "</table>" in html
        assert "shard.work" in html

    def test_report_from_aggregate_path_and_quality_rollup(self, tmp_path):
        from repro.fleet.report import quality_rollup

        aggregate = {
            "shards": 2,
            "scenarios": {
                "s": {
                    "outcome_matrix": {
                        "TP": {"count": 7, "acted": 7},
                        "FP": {"count": 3, "acted": 3},
                        "TN": {"count": 90, "acted": 0},
                        "FN": {"count": 5, "acted": 0},
                    }
                },
                "no-matrix": {},
            },
        }
        rollup = quality_rollup(aggregate)
        assert set(rollup) == {"s"}
        assert rollup["s"]["precision"] == pytest.approx(0.7)
        assert rollup["s"]["recall"] == pytest.approx(7 / 12)
        assert rollup["s"]["fpr"] == pytest.approx(3 / 93)

        path = tmp_path / "agg.json"
        path.write_text(json.dumps(aggregate))
        data = collect_report(aggregate=str(path), title="q")
        md = render_markdown(data)
        assert "Prediction quality" in md
        assert "0.7000" in md

    def test_report_with_no_artifacts_renders_placeholder(self):
        md = render_markdown(collect_report(title="empty"))
        assert "nothing to report" in md

    def test_quarantine_causes_from_ledger(self, tmp_path):
        specs = grid([TRACE_FAKE], seeds=[1])
        ledger = str(tmp_path / "ledger.jsonl")
        run_fleet(
            specs,
            backend="serial",
            ledger_path=ledger,
            chaos=ChaosConfig(seed=0, crash_probability=1.0),
            retry=RetryPolicy(max_attempts=2),
        )
        data = collect_report(ledger_path=ledger)
        assert data["statuses"][0]["status"] == "quarantined"
        md = render_markdown(data)
        assert "Quarantine & failure causes" in md
        assert specs[0].key() in md


class TestRecoverySurfacing:
    def test_recovery_section_only_on_request(self):
        specs = _specs(2)
        report = run_fleet(specs, backend="serial")
        plain = json.loads(report.aggregate_json())
        assert "recovery" not in plain
        rich = json.loads(report.aggregate_json(include_recovery=True))
        assert rich["recovery"]["retries"] == 0
        assert rich["recovery"]["quarantined_shards"] == []
        # Everything outside the recovery section is byte-identical.
        del rich["recovery"]
        assert rich == plain

    def test_recovery_counters_reach_json_and_prometheus(self):
        specs = _specs(4)
        report = run_fleet(
            specs,
            backend="serial",
            chaos=transient_crash_config([spec.key() for spec in specs]),
            retry=RetryPolicy(max_attempts=CLEAN_ATTEMPTS),
        )
        snapshot = report.recovery_snapshot()
        assert snapshot["retries"] >= 1
        assert snapshot["counters"]["fleet_retries_total"] >= 1
        doc = json.loads(report.aggregate_json(include_recovery=True))
        assert doc["recovery"]["counters"]["fleet_retries_total"] >= 1
        text = report.prometheus()
        assert "fleet_retries_total" in text
        assert "fake_ticks_total" in text  # merged shard metrics, same scrape
