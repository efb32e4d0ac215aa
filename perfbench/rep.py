"""One repetition of one workload, in a fresh process.

Started by ``run.py``, which passes the ``CLOCK_MONOTONIC`` time at which
it spawned this process (``--spawned-ns``; that clock is shared by all
processes).  Set-up time runs from there to the start of the timed
part, so it covers interpreter start, imports and the workload's own
set-up.  Prints one JSON object as its last line.
"""

import argparse
import gc
import glob
import json
import os
import resource
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest child (MiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def run_rep(args) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy
    import scipy

    import tracer as tracing
    import workloads

    imported_ns = tracing.now_ns()
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, args.horizon, args.workdir)
    # Installed after set-up, so the spans cover exactly the timed part.
    tracer = None
    if args.traced:
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}", args.workdir)
        tracing.install(tracer)
    elif workload.times_mea_steps:
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}", args.workdir)
        tracing.install_step_timer(tracer)
    gc.collect()
    if tracer is not None:
        root_id, root_parent = tracer.open()
    start_ns = tracing.now_ns()
    result = workload.run(inputs)
    end_ns = tracing.now_ns()
    if tracer is not None:
        tracer.close(root_id, root_parent, "workload", start_ns, end_ns)
    wall_s = (end_ns - start_ns) / 1e9

    steps_us = []
    if tracer is not None:
        steps_us = [
            (span[4] - span[3]) / 1e3
            for span in tracer.spans
            if span[2] == "core.mea.step"
        ]
    outcome = workload.outcome(inputs, result, steps_us)
    rep = {
        "ok": True,
        "traced": args.traced,
        "ops": outcome.ops,
        "failed_ops": outcome.failed_ops,
        "problems": outcome.problems,
        "digest": workloads.digest(outcome.doc),
        "wall_s": wall_s,
        "setup_s": (start_ns - args.spawned_ns) / 1e9,
        "peak_rss_mb": _peak_rss_mb(),
        "decision_us": outcome.decision_us,
        "decision_samples": outcome.decision_samples,
        "availability": outcome.availability,
        "import_s": (imported_ns - args.spawned_ns) / 1e9,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if args.traced:
        tracer.flush()
        spans, counts = tracing.load_spans(
            sorted(glob.glob(os.path.join(args.workdir, "spans-*.json")))
        )
        layers = tracing.analyze(spans, counts, root_id, wall_s)
        layers["setup.import_s"] = rep["import_s"]
        rep["layers"] = layers
    return rep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--horizon", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        rep = run_rep(args)
    except Exception as exc:  # reported to the launcher as a failed rep
        traceback.print_exc()
        print(json.dumps({"ok": False, "traced": args.traced, "error": repr(exc)}))
        return 1
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
