"""Bench: campaign availability + telemetry overhead accounting.

Runs the graceful-degradation campaign twice on the identical trained
models and faultload -- once with telemetry disabled, once with full
instrumentation traced by the fleet tracer -- and records per-scenario
availability plus the measured telemetry overhead in
``BENCH_campaign.json`` next to this file.  The sample trace (per-shard
sidecars merged into ``fleet_trace.jsonl``) lands in
``benchmarks/telemetry_sample/`` so CI can publish it as an artifact.

The enabled overhead is the median (with quartiles) over alternated
pairs of one attacked PFM shard run with telemetry off and on, as a fleet
shard runs it untraced.  Three single comparisons once read +0.1%,
+34.1% and -9.4% on a shared 2-core host: one pair cannot tell.

Three invariants are enforced:

- **observation must not perturb**: both runs produce identical
  availability and failure counts per scenario (telemetry draws no
  simulation randomness and feeds nothing back),
- **disabled-mode overhead < 5%**: the per-cycle cost of the NULL_HUB
  instrumentation (the no-op spans/counters every MEA iteration executes
  when nobody is listening), extrapolated to the whole run, stays below
  5% of the uninstrumented campaign's PFM wall time, and
- **disabled fleet-trace hooks < 5%**: the per-shard cost of the tracing
  hooks when no trace is installed (the ``active_trace() is None``
  branch in ``execute_spec`` plus the no-op ``announce_shard_hub`` call
  every runner makes), extrapolated to every shard, stays below 5% of
  the same wall time.
"""

import json
import shutil
import statistics
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.resilience.campaign import (
    CampaignConfig,
    PFMFaultScenario,
    _run_scenario,
    _train_models,
    campaign_specs,
    run_campaign,
)
from repro.telemetry.hub import NULL_HUB
from repro.telemetry.tracing import (
    active_trace,
    announce_shard_hub,
    read_merged_trace,
)

ARTIFACT = Path(__file__).with_name("BENCH_campaign.json")
SAMPLE_DIR = Path(__file__).with_name("telemetry_sample")

HORIZON = 0.5 * 86_400.0
SEED = 11
#: Alternated telemetry off/on pairs behind the enabled-overhead median.
ENABLED_PAIRS = 10


def _config(**telemetry_kwargs) -> CampaignConfig:
    return CampaignConfig(
        seed=SEED,
        horizon=HORIZON,
        scenarios=[
            PFMFaultScenario(
                "all-fronts",
                monitoring_dropout=True,
                observation_corruption=True,
                predictor_exceptions=True,
                predictor_latency=True,
                action_failures=True,
            )
        ],
        attack_mtbf=1_800.0,
        attack_duration=1_200.0,
        **telemetry_kwargs,
    )


def _disabled_cycle_cost(iterations: int = 20_000) -> float:
    """Wall seconds per MEA iteration spent in NULL_HUB instrumentation.

    Replays the exact no-op telemetry calls one healthy cycle makes:
    the cycle span, three step spans, the scoring span + annotation, and
    the per-cycle counters/gauge.
    """
    hub = NULL_HUB
    start = time.perf_counter()
    for i in range(iterations):
        with hub.span("mea.cycle", iteration=i) as cycle:
            with hub.span("mea.monitor"):
                pass
            with hub.span("mea.evaluate"):
                with hub.span("evaluate.score") as score:
                    score.annotate(source="primary")
                    hub.counter(
                        "predictor_scores_total", source="primary"
                    ).inc()
            cycle.annotate(warning=False, action=None)
        hub.counter("mea_cycles_total").inc()
        hub.gauge("mea_consecutive_failed_cycles").set(0.0)
    return (time.perf_counter() - start) / iterations


def _disabled_hook_cost(iterations: int = 200_000) -> float:
    """Wall seconds per shard spent in fleet-trace hooks when tracing is off.

    Replays the exact no-trace path one shard execution takes: the
    ``active_trace()`` check in ``execute_spec`` and the runner's
    ``announce_shard_hub`` call (a no-op when no capture window is
    open).
    """
    start = time.perf_counter()
    for _ in range(iterations):
        if active_trace() is None:
            announce_shard_hub(NULL_HUB)
    return (time.perf_counter() - start) / iterations


def _paired_enabled_overhead(trained) -> dict:
    """Telemetry-on vs -off CPU time of the attacked shard, in pairs.

    Each pair runs the shard once per side, alternating which side goes
    first; its overhead is ``(on - off) / off`` of the run's CPU seconds,
    which other tenants of a shared host do not inflate the way they do
    wall seconds.  Returns the median and quartiles over the pairs.
    """
    off_spec = campaign_specs(_config())[-1]
    on_spec = campaign_specs(_config(telemetry=True))[-1]
    cpu: dict[str, list[float]] = {"off": [], "on": []}
    for pair in range(ENABLED_PAIRS):
        sides = [("off", off_spec), ("on", on_spec)]
        for side, spec in sides if pair % 2 == 0 else reversed(sides):
            start = time.process_time()
            _run_scenario(spec, trained)
            cpu[side].append(time.process_time() - start)
    overheads = [
        100.0 * (on - off) / off for on, off in zip(cpu["on"], cpu["off"], strict=True)
    ]
    q1, median, q3 = statistics.quantiles(overheads, n=4, method="inclusive")
    return {
        "scenario": off_spec.scenario,
        "pairs": ENABLED_PAIRS,
        "median_pct": median,
        "quartiles_pct": [q1, q3],
        "cpu_seconds_disabled_median": statistics.median(cpu["off"]),
        "cpu_seconds_enabled_median": statistics.median(cpu["on"]),
    }


@pytest.mark.slow
def test_bench_campaign_telemetry_overhead(benchmark):
    plain_config = _config()
    trained = _train_models(campaign_specs(plain_config)[1])

    plain = benchmark.pedantic(
        lambda: run_campaign(plain_config, trained=trained),
        rounds=1,
        iterations=1,
    )
    shutil.rmtree(SAMPLE_DIR, ignore_errors=True)
    instrumented = run_campaign(
        _config(telemetry=True), trained=trained, trace_dir=str(SAMPLE_DIR)
    )
    traced = Counter(record["lane"] for record in read_merged_trace(str(SAMPLE_DIR)))

    # Observation must not perturb the experiment: identical faultload,
    # identical outcomes.
    for off, on in zip(
        [plain.healthy, *plain.attacked],
        [instrumented.healthy, *instrumented.attacked],
        strict=True,
    ):
        assert on.availability == off.availability, off.spec.scenario
        assert on.failures == off.failures
        assert on.mea_iterations == off.mea_iterations
        assert on.telemetry_events > 0
        assert traced[on.spec.key()] == on.telemetry_events

    wall_off = sum(
        r.wall_seconds for r in [plain.healthy, *plain.attacked]
    )
    enabled = _paired_enabled_overhead(trained)

    per_cycle = _disabled_cycle_cost()
    total_cycles = sum(
        r.mea_iterations for r in [plain.healthy, *plain.attacked]
    )
    disabled_overhead = (per_cycle * total_cycles) / wall_off

    per_shard = _disabled_hook_cost()
    shards = len(campaign_specs(plain_config))
    hook_overhead = (per_shard * shards) / wall_off

    record = {
        "config": {
            "horizon_days": HORIZON / 86_400.0,
            "seed": SEED,
            "seeds": plain.seeds,
            "scenarios": [r.spec.scenario for r in [plain.healthy, *plain.attacked]],
            # run_campaign rides the fleet runner; injected pre-trained
            # models force the serial backend (see run_campaign docs).
            "backend": "fleet-serial",
        },
        "availability": {
            "no_pfm_baseline": plain.baseline_availability,
            **{
                r.spec.scenario: r.availability
                for r in [plain.healthy, *plain.attacked]
            },
        },
        "telemetry": {
            "wall_seconds_disabled": wall_off,
            "enabled_overhead": enabled,
            "disabled_per_cycle_us": per_cycle * 1e6,
            "disabled_overhead_pct": 100.0 * disabled_overhead,
            "disabled_trace_hook_per_shard_us": per_shard * 1e6,
            "disabled_trace_hook_overhead_pct": 100.0 * hook_overhead,
            "events_per_scenario": {
                r.spec.scenario: r.telemetry_events
                for r in [instrumented.healthy, *instrumented.attacked]
            },
        },
    }
    ARTIFACT.write_text(json.dumps(record, indent=2) + "\n")

    print("\n=== campaign telemetry overhead ===")
    print(f"PFM wall (telemetry off): {wall_off:.2f}s")
    q1, q3 = enabled["quartiles_pct"]
    print(
        f"enabled telemetry, {enabled['scenario']} shard, {enabled['pairs']} "
        f"pairs: median {enabled['median_pct']:+.1f}% [{q1:+.1f}%, {q3:+.1f}%]"
    )
    print(
        f"disabled-mode instrumentation: {per_cycle * 1e6:.2f}us/cycle "
        f"x {total_cycles} cycles = {100.0 * disabled_overhead:.3f}% of run"
    )
    print(
        f"disabled fleet-trace hooks: {per_shard * 1e6:.3f}us/shard "
        f"x {shards} shards = {100.0 * hook_overhead:.5f}% of run"
    )

    # CI smoke: the no-op paths must stay beneath 5% of the campaign's
    # wall time -- instrumentation that is "off" must be free.
    assert disabled_overhead < 0.05
    assert hook_overhead < 0.05
