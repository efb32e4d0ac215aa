"""End-to-end smoke of the benchmark command on tiny horizons.

Each case starts the real launcher, so these take a few seconds each.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

#: Shortest training trace (seed 11) that still holds SLA failures and
#: failure sequences for every predictor the workloads train.
TINY_HORIZON = "21600"


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload: str, trace: int, root: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, os.path.join(root, "perfbench", "run.py"),
            "--workload", workload, "--seed", "21", "--seconds", "1",
            "--trace", str(trace), "--horizon", TINY_HORIZON,
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", ["closed-loop", "noisy-or-panel", "fleet-campaign"]
)
def test_metric_names_and_units_match_the_benchmark_definition(workload, trace):
    spec = _spec()
    assert workload in {w["name"] for w in spec["workloads"]}
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    assert "digest" in out.stdout


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(
        BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    out = _run("closed-loop", 0, root=str(tmp_path))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
