"""Benchmark launcher.

    python3 perfbench/run.py --workload closed-loop --seed 21 --seconds 20 --trace 0

Runs repetitions of one workload, each in a fresh process
(``perfbench/rep.py``), until ``--seconds`` are used up, checks every
repetition's outputs, and prints one JSON object as its last line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones (medians over repetitions); with
``--trace 1`` untraced and traced repetitions alternate and the metrics
are the per-layer ones (medians over the traced repetitions) plus the
tracing overhead.  See ``perfbench/README.md``.
"""

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from collections import Counter

from tracer import LAYER_METRICS, now_ns

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: One BLAS / OpenMP thread per process.  The launcher never imports
#: numpy; each repetition (and its fleet workers) starts with these set.
THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: Operations one repetition attempts: the closed-loop comparison, the
#: panel's fit-and-score, one per fleet shard (no-pfm, healthy-pfm and
#: the two attacked scenarios).  A repetition reports its own count;
#: this one is charged for a repetition that crashed before reporting.
OPS_PER_REP = {"closed-loop": 1, "noisy-or-panel": 1, "fleet-campaign": 4}

#: End-to-end metrics: (name, unit).
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

#: Printed with every untraced run, but not bounded metrics: the names of
#: each workload's decision latency and availability.  Availability is
#: deterministic per seed, so the result digest pins it.  The decision
#: latency (an MEA cycle's p50, or held-out scoring per row) follows the
#: host's speed drift even harder than ``wall_s`` does.
REPORTED_AS = {
    "closed-loop": ("mea_cycle_p50_us", "pfm_availability"),
    "noisy-or-panel": ("score_us_per_row", "heldout_availability"),
    "fleet-campaign": ("mea_cycle_p50_us", "pfm_availability"),
}

DEFAULT_HORIZON_S = 43_200.0

#: A run stops starting repetitions so that it ends within this budget.
RUN_LIMIT_S = 170.0


def _clock_s() -> float:
    return now_ns() / 1e9


def spawn_rep(workload, seed, horizon, traced, workdir, timeout) -> dict:
    """Run one repetition in a fresh process group; returns its report."""
    spawned_ns = now_ns()
    cmd = [
        sys.executable,
        os.path.join(HERE, "rep.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--horizon", repr(horizon),
        "--workdir", workdir,
        "--spawned-ns", str(spawned_ns),
    ]
    if traced:
        cmd.append("--traced")
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env={**os.environ, **THREADS},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        error = f"timed out after {timeout:.0f}s"
        return {"ok": False, "traced": traced, "error": error}
    finally:
        # Fleet workers belong to the repetition's group: none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    try:
        rep = json.loads(lines[-1])
    except (IndexError, ValueError):
        rep = {"ok": False, "traced": traced, "error": "no result line"}
    if not rep.get("ok"):
        sys.stderr.write(err[-4000:])
    return rep


def run_reps(workload, seed, horizon, seconds, trace, scratch, started) -> list[dict]:
    """Repetitions until ``seconds`` are used; with ``trace``, untraced
    and traced ones alternate and at least one of each runs."""
    reps: list[dict] = []
    durations: list[float] = []
    deadline = _clock_s() + seconds
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        workdir = os.path.join(scratch, f"rep{len(reps)}")
        os.makedirs(workdir)
        begin = _clock_s()
        budget = max(RUN_LIMIT_S - (begin - started), 1.0)
        reps.append(spawn_rep(workload, seed, horizon, traced, workdir, budget))
        durations.append(_clock_s() - begin)
        shutil.rmtree(workdir, ignore_errors=True)
        if trace and len(reps) < 2:
            continue
        # Start another repetition only if even the slowest one so far
        # would still end in time.
        if _clock_s() + max(durations) > min(deadline, started + RUN_LIMIT_S):
            return reps


def summarize(workload: str, reps: list[dict], trace: bool):
    """Ops accounting and metrics over a run's repetitions.

    A repetition that failed fails all its ops; one whose result digest
    differs from the most common digest of the run (same seed, so it
    must repeat) fails all its ops too; otherwise its own failed checks
    count.  Returns ``(attempted, failed, problems, metrics)``;
    ``metrics`` is ``None`` when no repetition can supply them.
    """
    per_rep = OPS_PER_REP[workload]
    attempted = failed = 0
    problems: list[str] = []
    good = [rep for rep in reps if rep.get("ok")]
    digests = Counter(rep["digest"] for rep in good)
    majority = digests.most_common(1)[0][0] if digests else None
    valid = []
    for index, rep in enumerate(reps):
        ops = rep.get("ops", per_rep)
        attempted += ops
        if not rep.get("ok"):
            failed += ops
            problems.append(f"rep {index}: {rep.get('error', 'failed')}")
        elif rep["digest"] != majority:
            failed += ops
            problems.append(
                f"rep {index}: digest {rep['digest'][:12]} differs from "
                f"{majority[:12]} of the same seed"
            )
        else:
            failed += rep["failed_ops"]
            problems.extend(f"rep {index}: {p}" for p in rep["problems"])
            valid.append(rep)

    plain = [rep for rep in valid if not rep["traced"]]
    traced = [rep for rep in valid if rep["traced"]]
    metrics = None
    if not trace and plain:
        metrics = {
            name: {"value": statistics.median(rep[name] for rep in plain), "unit": unit}
            for name, unit in END_TO_END
        }
    elif trace and plain and traced:
        metrics = {}
        for name, unit in LAYER_METRICS:
            if name == "trace.overhead_share":
                value = (
                    statistics.median(rep["wall_s"] for rep in traced)
                    / statistics.median(rep["wall_s"] for rep in plain)
                    - 1.0
                )
            else:
                value = statistics.median(rep["layers"][name] for rep in traced)
            metrics[name] = {"value": value, "unit": unit}
    return attempted, failed, problems, metrics


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _report(workload, seed, reps, metrics, trace) -> None:
    """Human-readable lines ahead of the result line."""
    for index, rep in enumerate(reps):
        if not rep.get("ok"):
            print(f"rep {index}: FAILED {rep.get('error')}")
            continue
        kind = "traced" if rep["traced"] else "plain"
        print(
            f"rep {index} {kind}: wall {rep['wall_s']:.3f} s, setup "
            f"{rep['setup_s']:.3f} s, peak rss {rep['peak_rss_mb']:.1f} MiB, "
            f"decision {rep['decision_us']:.1f} us (n={rep['decision_samples']}), "
            f"availability {rep['availability']:.6f}, digest {rep['digest']}"
        )
    versions = next((rep["versions"] for rep in reps if rep.get("ok")), {})
    env = {
        "workload": workload,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "threads": THREADS,
        **versions,
        "commit": _commit(),
    }
    print("env " + json.dumps(env, sort_keys=True))
    if metrics is None:
        return
    if not trace:
        plain = [rep for rep in reps if rep.get("ok") and not rep["traced"]]
        decision, availability = REPORTED_AS[workload]
        print(
            f"{decision} {statistics.median(r['decision_us'] for r in plain)!r} us "
            f"(n={plain[0]['decision_samples']} per repetition)"
        )
        print(
            f"{availability} {statistics.median(r['availability'] for r in plain)!r} "
            "fraction (pinned by the digest)"
        )
    for name, entry in metrics.items():
        print(f"{name:40s} {entry['value']:>16.6g} {entry['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(OPS_PER_REP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--horizon",
        type=float,
        default=DEFAULT_HORIZON_S,
        help="simulated seconds of the training trace (tests shrink it)",
    )
    args = parser.parse_args(argv)
    started = _clock_s()

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return 2
    # Byte-compile once up front so no repetition's set-up pays for it.
    compileall.compile_dir(src, quiet=1)

    scratch_root = os.path.join(ROOT, ".perfbench-run")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)
    try:
        reps = run_reps(
            args.workload, args.seed, args.horizon, args.seconds, args.trace,
            scratch, started,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run is using it
    attempted, failed, problems, metrics = summarize(
        args.workload, reps, bool(args.trace)
    )
    _report(args.workload, args.seed, reps, metrics, bool(args.trace))
    for problem in problems:
        print(f"problem: {problem}")
    if metrics is None:
        print("perfbench: no repetition produced metrics", file=sys.stderr)
        return 1
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
