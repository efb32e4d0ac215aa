"""Worker-metrics merge: per-shard registries == one serial hub.

The fleet's observability claim is that per-shard ``metrics_state``
registries, shipped across the process boundary and merged parent-side
(:meth:`repro.telemetry.metrics.MetricsRegistry.merge`, in spec-key
order), reconcile *exactly* with a single hub observing the same
workload serially — and that the merged registry is byte-deterministic
across backends, chunking, and chaos-absorbed worker restarts.

The observation pattern lives in one function (:func:`_observe`) used by
both sides of every comparison, so the tests assert the merge machinery,
not two hand-kept copies of a workload.
"""

import pytest

from repro.fleet import RunResult, RunSpec, grid, run_fleet
from repro.fleet.shards import register_scenario_runner
from repro.resilience import RetryPolicy
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.metrics import MetricsRegistry
from tests.fleet.chaos_search import CLEAN_ATTEMPTS, transient_crash_config

MM_FAKE = "metrics-merge-fake"

#: Observations per shard into the big histogram; with enough shards the
#: pooled total exceeds the 256-slot reservoir, exercising the seeded
#: downsampling path in :meth:`Histogram.merge`.
BIG_OBS = 120


def _observe(registry: MetricsRegistry, spec: RunSpec) -> None:
    """The deterministic per-shard observation pattern."""
    registry.counter("mm_events_total").inc(3 + spec.seed)
    registry.counter("mm_shards_total", scenario=spec.scenario).inc()
    registry.gauge("mm_last_seed").set(float(spec.seed))
    small = registry.histogram("mm_latency_small")
    for i in range(3):
        small.observe(spec.seed * 10.0 + i)
    big = registry.histogram("mm_latency_big")
    for i in range(BIG_OBS):
        big.observe(spec.seed * 1000.0 + i)


def _fake_runner(spec: RunSpec) -> RunResult:
    hub = TelemetryHub()
    _observe(hub.registry, spec)
    return RunResult(
        spec=spec,
        availability=0.95,
        failures=0,
        telemetry_events=len(hub.events),
        metrics_state=hub.registry.to_state(),
        wall_seconds=0.0,
    )


register_scenario_runner(MM_FAKE, _fake_runner, overwrite=True)


def _specs(n=6):
    return grid([MM_FAKE], seeds=range(1, 1 + n))


def _single_hub_state(specs):
    """One registry observing every shard serially, in key order."""
    registry = MetricsRegistry()
    for spec in sorted(specs, key=lambda s: s.key()):
        _observe(registry, spec)
    return registry.to_state()


def _by_name(state):
    return {(entry["name"], tuple(map(tuple, entry["labels"]))): entry
            for entry in state}


class TestSerialReconciliation:
    def test_merged_registry_reconciles_with_single_hub(self):
        specs = _specs()
        report = run_fleet(specs, backend="serial")
        merged = _by_name(report.merged_metrics().to_state())
        single = _by_name(_single_hub_state(specs))
        assert set(merged) == set(single)
        for key, expected in single.items():
            got = merged[key]
            if expected["kind"] != "histogram":
                assert got == expected, key
            else:
                # Exact aggregates always; the reservoir is exact too
                # while the pooled sample is under capacity (merging
                # under-capacity reservoirs in key order concatenates
                # them — the same sequence a single hub appends).
                for field in ("count", "total", "min", "max"):
                    assert got[field] == expected[field], (key, field)
                if expected["count"] <= expected["reservoir_size"]:
                    assert got["reservoir"] == expected["reservoir"], key

    def test_big_histogram_actually_overflows_the_reservoir(self):
        specs = _specs()
        report = run_fleet(specs, backend="serial")
        entry = _by_name(report.merged_metrics().to_state())[
            ("mm_latency_big", ())
        ]
        assert entry["count"] == BIG_OBS * len(specs)
        assert entry["count"] > entry["reservoir_size"]
        assert len(entry["reservoir"]) == entry["reservoir_size"]

    def test_merge_matches_manual_key_order_merge(self):
        specs = _specs(4)
        report = run_fleet(specs, backend="serial")
        manual = MetricsRegistry()
        for result in sorted(report.results, key=lambda r: r.spec.key()):
            manual.merge(result.metrics_registry())
        assert report.merged_metrics().to_state() == manual.to_state()


class TestCrossProcessDeterminism:
    def test_chunked_process_merge_equals_serial_merge_exactly(self):
        specs = _specs()
        serial = run_fleet(specs, backend="serial")
        chunked = run_fleet(specs, backend="process", workers=2, chunk_size=2)
        assert (
            chunked.merged_metrics().to_state()
            == serial.merged_metrics().to_state()
        )

    def test_merge_after_chaos_absorbed_restart_is_exact(self):
        """A worker hard-killed mid-run changes nothing in the merged
        registry: the retried shard re-produces an identical per-shard
        state, and key-ordered merging does the rest — including the
        over-capacity histogram's seeded downsample."""
        specs = _specs()
        serial = run_fleet(specs, backend="serial")
        chaotic = run_fleet(
            specs,
            backend="process",
            workers=2,
            chunk_size=2,
            chaos=transient_crash_config([spec.key() for spec in specs]),
            retry=RetryPolicy(max_attempts=CLEAN_ATTEMPTS + 2),
        )
        assert chaotic.quarantined == []
        assert chaotic.timing["recovery"]["worker_restarts"] >= 1
        assert (
            chaotic.merged_metrics().to_state()
            == serial.merged_metrics().to_state()
        )
        # And the single-hub reconciliation still holds for the exact
        # aggregate fields after the restart.
        merged = _by_name(chaotic.merged_metrics().to_state())
        single = _by_name(_single_hub_state(specs))
        for key, expected in single.items():
            if expected["kind"] == "histogram":
                assert merged[key]["count"] == expected["count"]
                assert merged[key]["total"] == pytest.approx(
                    expected["total"]
                )
            else:
                assert merged[key] == expected
