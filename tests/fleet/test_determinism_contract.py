"""The fleet's determinism contract, on the runners users run.

One grid gives one answer in every mode: serial, process, chaos-absorbed,
traced, artifact-store and resumed runs produce the same
``aggregate_json()`` bytes, and traced runs the same shard sidecars.
The grid is three real shards at 0.3 simulated days with telemetry on:
the closed loop with the UBF, the closed loop with a criticality-aware
Noisy-OR panel, and the campaign's ``all-fronts`` attack.  0.3 d is the
shortest horizon at which train seed 11 yields positive training
examples and eval seed 21's baseline has SLA failures.

A serial reference run (no artifact store, deterministic trace
sidecars) is repeated twice:

(a) on the process backend with 2 workers, an artifact store, tracing
    and a chaos regime in which at least one worker is killed on a first
    attempt and every retry is clean; the store must hold the models the
    reference trained, pickled to the same bytes;
(b) untraced on the process backend without a store, resuming from a
    ledger that holds the first shard and a torn line.

Each run starts from an empty training cache, so every run trains its
own models and a training-time nondeterminism cannot hide behind a
shared one.
"""

import json
import pickle

import pytest

from repro.faults.chaos import active_chaos, crash_decision
from repro.fleet import RunSpec, grid, run_fleet
from repro.fleet.artifacts import ArtifactStore
from repro.fleet.ledger import ShardLedger
from repro.fleet.shards import cached_training, clear_training_cache, training_plan
from repro.resilience import RetryPolicy
from repro.resilience.campaign import (
    CampaignConfig,
    campaign_specs,
    default_scenarios,
)
from repro.telemetry.tracing import active_trace, read_merged_trace, safe_lane_name
from tests.fleet.chaos_search import CLEAN_ATTEMPTS, transient_crash_config

HORIZON = 0.3 * 86_400.0
TRAIN_SEED = 11
EVAL_SEED = 21
PANEL = {
    "name": "noisy-or",
    "members": ["ubf", "rate"],
    "criticality": {"rate": 0.8},
}


def _grid() -> list[RunSpec]:
    closed_loop = grid(
        ["closed-loop"],
        seeds=[EVAL_SEED],
        predictors=["ubf", PANEL],
        horizon=HORIZON,
        telemetry=True,
        train_seed=TRAIN_SEED,
        eval_seed=EVAL_SEED,
    )
    all_fronts = [s for s in default_scenarios() if s.name == "all-fronts"]
    campaign = campaign_specs(
        CampaignConfig(
            train_seed=TRAIN_SEED,
            eval_seed=EVAL_SEED,
            horizon=HORIZON,
            telemetry=True,
            scenarios=all_fronts,
        )
    )
    return sorted([*closed_loop, campaign[-1]], key=RunSpec.key)


def _sidecar(trace_dir, key: str):
    return trace_dir / "shards" / f"{safe_lane_name(key)}.jsonl"


def _header_and_events(path) -> tuple[dict, list[str]]:
    header, *events = path.read_text(encoding="utf-8").splitlines()
    return json.loads(header)["trace_meta"], events


def _model_bytes(specs, load) -> dict[str, bytes]:
    """Each shard's trained model, pickled; ``load(train_key)`` fetches it.

    A model is pickled after one pickle round trip, the form a store
    load returns: the first round trip can change how the pickle shares
    equal strings, so only round-tripped bytes compare.
    """
    return {
        spec.key(): pickle.dumps(
            pickle.loads(pickle.dumps(load(training_plan(spec)[0])))
        )
        for spec in specs
    }


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The serial run every other mode must repeat, its trace dir, and the
    models it trained (read back from the in-process training cache)."""
    trace_dir = tmp_path_factory.mktemp("reference-trace")
    specs = _grid()
    clear_training_cache()
    report = run_fleet(
        specs,
        backend="serial",
        trace_dir=str(trace_dir),
        trace_deterministic=True,
    )
    models = _model_bytes(specs, lambda key: cached_training(key, None))
    yield report, trace_dir, models
    clear_training_cache()


def test_process_chaos_store_and_tracing_repeat_the_reference(
    reference, tmp_path
):
    expected, reference_trace, reference_models = reference
    specs = _grid()
    keys = [spec.key() for spec in specs]
    chaos = transient_crash_config(keys)
    planned = {key for key in keys if crash_decision(chaos, key, 1)}
    trace_dir = tmp_path / "trace"
    store = ArtifactStore(str(tmp_path / "store"))

    clear_training_cache()
    report = run_fleet(
        specs,
        backend="process",
        workers=2,
        artifact_store=store,
        chaos=chaos,
        retry=RetryPolicy(max_attempts=CLEAN_ATTEMPTS + 2),
        trace_dir=str(trace_dir),
        trace_deterministic=True,
    )

    assert report.aggregate_json() == expected.aggregate_json()
    assert _model_bytes(specs, store.load) == reference_models

    # The chaos fired and every crash was absorbed by a retry.
    assert report.quarantined == []
    recovery = report.timing["recovery"]
    assert recovery["quarantined"] == 0
    assert recovery["infrastructure_failures"] >= 1
    assert recovery["worker_restarts"] >= 1
    assert recovery["retries"] >= 1
    counters = {
        name: metric.value
        for (name, _), metric in report.fleet_metrics._metrics.items()
    }
    assert counters["fleet_worker_restarts_total"] == recovery["worker_restarts"]
    assert counters["fleet_retries_total"] == recovery["retries"]
    # Neither the chaos nor the trace context leaks into the parent.
    assert active_chaos() is None
    assert active_trace() is None

    # A planned crash may never fire (its worker can die collaterally
    # first), but every fired crash was planned and one did fire.
    merged = read_merged_trace(str(trace_dir))
    crashed = {doc["key"] for doc in merged if doc["event"] == "chaos.crash"}
    assert crashed and crashed <= planned
    assert report.timing["trace"]["chaos_events"] >= len(crashed)
    assert any(doc["event"] == "fleet.retry" for doc in merged)
    assert {doc["lane"] for doc in merged} >= set(keys)

    # A shard the pool ran once repeats its sidecar byte for byte.  A
    # resubmitted one (it crashed, or was in flight when a worker died)
    # repeats its event lines; its header differs only in the attempt.
    for key in keys:
        path, reference_path = _sidecar(trace_dir, key), _sidecar(reference_trace, key)
        meta, events = _header_and_events(path)
        reference_meta, reference_events = _header_and_events(reference_path)
        assert events == reference_events, key
        assert {**meta, "attempt": 1} == reference_meta, key
        if meta["attempt"] == 1:
            assert path.read_bytes() == reference_path.read_bytes(), key
        if key in crashed:
            assert meta["attempt"] >= 2, key


def test_untraced_resume_runs_only_the_missing_shards(reference, tmp_path):
    expected, _, _ = reference
    ledger_path = tmp_path / "ledger.jsonl"
    ledger = ShardLedger(str(ledger_path))
    ledger.append(expected.results[0])
    intact = ledger_path.stat().st_size
    # A hard kill in the middle of writing the second shard's line.
    ledger.append(expected.results[1])
    with open(ledger_path, "r+b") as handle:
        handle.truncate((intact + ledger_path.stat().st_size) // 2)

    clear_training_cache()
    report = run_fleet(
        _grid(), backend="process", workers=2, ledger_path=str(ledger_path)
    )

    assert report.timing["resumed_from_ledger"] == 1
    assert report.timing["executed"] == 2
    assert report.aggregate_json() == expected.aggregate_json()
    # The torn line did not swallow the first shard appended after it.
    assert set(ShardLedger(str(ledger_path)).load()) == {
        result.spec.key() for result in expected.results
    }
