"""Fleet sweep: the closed-loop experiment as a sharded distribution.

The paper's availability deltas (Sect. 5 / Eq. 14) are only meaningful
as distributions over faultloads.  This example builds a small grid of
closed-loop shards — one per master seed, sharing one trained predictor
— fans it across a process pool, and prints the per-scenario
availability distribution with its bootstrap confidence interval.

A plain run computes every shard and writes no file.  With
``--ledger PATH`` each finished shard is checkpointed there: kill the
run halfway and start it again with the same path, and it resumes from
the completed shards.  A ledger entry is keyed by the spec alone, so
delete the file after changing the code, or it replays the old results.

Run:  python examples/fleet_sweep.py [--serial] [--seeds N] [--days D]
                                      [--ledger PATH]
"""

import argparse
import sys

from repro import grid, run_fleet


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--serial", action="store_true",
                        help="run in-process instead of the process pool")
    parser.add_argument("--seeds", type=int, default=4,
                        help="number of master seeds (default 4)")
    parser.add_argument("--days", type=float, default=0.5,
                        help="simulated horizon per shard in days")
    parser.add_argument("--ledger", default=None,
                        help="checkpoint file to write and resume from "
                             "(default: none, every shard runs)")
    args = parser.parse_args(argv)

    # One spec per master seed; train_seed pinned so every shard replays
    # its own evaluation faultload against the same trained predictor.
    specs = grid(
        ["closed-loop"],
        seeds=range(21, 21 + args.seeds),
        horizon=args.days * 86_400.0,
        train_seed=11,
        telemetry=True,
    )
    print(f"grid: {len(specs)} shards")
    for spec in specs:
        print(f"  {spec.key()}  seeds={spec.seeds()}")

    report = run_fleet(
        specs,
        backend="serial" if args.serial else "process",
        ledger_path=args.ledger,
        progress=lambda done, total, r: print(
            f"[{done}/{total}] {r.spec.key()} "
            f"avail={r.availability:.4f} ({r.wall_seconds:.1f}s)"
        ),
    )

    print()
    print(report.summary())

    agg = report.scenario("closed-loop").to_json_dict()
    lo, hi = agg["availability"]["ci95"]
    print()
    print(f"availability: mean={agg['availability']['mean']:.4f} "
          f"ci95=[{lo:.4f}, {hi:.4f}] over {agg['shards']} faultloads")
    if "unavailability_ratio" in agg:
        ratio = agg["unavailability_ratio"]
        print(f"unavailability ratio (Eq. 14, measured): "
              f"mean={ratio['mean']:.3f} ci95={ratio['ci95']}")
    merged = report.merged_metrics()
    print(f"merged telemetry: {len(merged)} metric series across all shards")
    return 0


if __name__ == "__main__":
    sys.exit(main())
