"""Bench: how much faster the process pool runs a fleet grid than serial.

Runs one 4-shard closed-loop grid on the serial backend and on a
2-worker process pool, once with a shared trained-model artifact store
and once without (every worker then trains in-process), and records
both wall times and the speedup of each mode in ``BENCH_fleet.json``
next to this file.

The gate: with effective parallelism ``p = min(workers, cpu_count)``,
the pool must beat serial by ``min(2.0, 0.6 * p)``, so 2 workers on
>= 2 cores must clear 1.2x.  It is asserted only when ``p >= 2``: a
1-CPU runner cannot run two workers at once, so its "speedup" is
recorded (with ``cpu_count`` and ``speedup_asserted: false`` making the
gate auditable) but proves nothing either way.

With the store, each backend gets its own fresh store, so both pay one
pre-warm training pass: serial = train once + 4 evaluations in
sequence; parallel = train once + 4 evaluations fanned over the pool,
with workers *loading* the shared artifact.  Without it, serial trains
once and each worker trains once for itself.  The grid pins
``train_seed`` and sweeps the master seed, so every shard replays its
own evaluation faultload against one shared training configuration.

That the two backends give byte-identical aggregates is checked in
tier-1, by ``tests/fleet/test_determinism_contract.py``.
"""

import json
import os
from pathlib import Path

import pytest

from repro.fleet import grid, run_fleet
from repro.fleet.shards import clear_training_cache

ARTIFACT = Path(__file__).with_name("BENCH_fleet.json")

SHARDS = 4
WORKERS = 2
HORIZON = 0.4 * 86_400.0
BASE_SEED = 21
TRAIN_SEED = 11

#: Speedup the pool must deliver at full parallelism.
MIN_SPEEDUP = 2.0
#: Fraction of ideal (linear) speedup required at lower parallelism.
PARALLEL_EFFICIENCY = 0.6


@pytest.mark.slow
@pytest.mark.parametrize("mode", ["artifact_store", "train_per_worker"])
def test_bench_fleet_speedup(mode, tmp_path):
    specs = grid(
        ["closed-loop"],
        seeds=range(BASE_SEED, BASE_SEED + SHARDS),
        horizon=HORIZON,
        telemetry=True,
        train_seed=TRAIN_SEED,
    )
    use_store = mode == "artifact_store"

    # Separate stores per backend (and a cleared in-process cache in
    # between), so the serial run cannot subsidize the parallel one's
    # wall time through either cache layer.
    clear_training_cache()
    serial = run_fleet(
        specs,
        backend="serial",
        artifact_store=str(tmp_path / "serial") if use_store else None,
    )
    clear_training_cache()
    parallel = run_fleet(
        specs,
        backend="process",
        workers=WORKERS,
        artifact_store=str(tmp_path / "process") if use_store else None,
    )

    serial_wall = serial.timing["wall_seconds"]
    parallel_wall = parallel.timing["wall_seconds"]
    speedup = serial_wall / parallel_wall if parallel_wall else float("inf")
    cores = os.cpu_count() or 1
    parallelism = min(cores, WORKERS)
    speedup_asserted = parallelism >= 2
    required = min(MIN_SPEEDUP, PARALLEL_EFFICIENCY * parallelism)

    previous = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    record = {
        key: previous[key]
        for key in ("artifact_store", "train_per_worker")
        if key in previous
    }
    record[mode] = {
        "config": {
            "shards": SHARDS,
            "workers": WORKERS,
            "horizon_days": HORIZON / 86_400.0,
            "base_seed": BASE_SEED,
            "train_seed": TRAIN_SEED,
            "cpu_count": cores,
            "effective_parallelism": parallelism,
            "chunks": parallel.timing["chunks"],
            "chunk_size": parallel.timing["chunk_size"],
        },
        "serial_wall_seconds": serial_wall,
        "parallel_wall_seconds": parallel_wall,
        "speedup": speedup,
        "speedup_asserted": speedup_asserted,
        "required_speedup": required if speedup_asserted else None,
        "prewarm": parallel.timing["prewarm"],
    }
    ARTIFACT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"\n=== fleet serial vs process ({mode}) ===")
    print(f"shards={SHARDS} workers={WORKERS} cores={cores}")
    print(f"serial:   {serial_wall:.1f}s")
    print(f"parallel: {parallel_wall:.1f}s  (speedup {speedup:.2f}x)")

    if speedup_asserted:
        assert speedup >= required, (
            f"process pool speedup {speedup:.2f}x < required {required:.2f}x "
            f"({WORKERS} workers on {cores} cores, {mode})"
        )
