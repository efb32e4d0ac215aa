"""Bench: pfmlint cold vs warm cache.

Lints the real ``src/`` tree twice -- with a cold cache, then with the
warm cache -- asserting the incremental-analysis contract: a warm run is
at least 5x faster than a cold one (it skips every per-file parse and
rule pass, replaying only the cheap project phase) and reports the same
findings.  Writes the measured numbers to ``BENCH_lint.json`` next to
this file so the speedup is recorded as a build artifact.

That parallel findings are byte-identical to serial ones is checked in
tier-1, by ``tests/devtools/test_parallel.py``.
"""

import json
import time
from pathlib import Path

from repro.devtools.lint.engine import lint_paths
from repro.devtools.lint.project import ANALYZER_VERSION
from repro.devtools.lint.rules import all_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")
ARTIFACT = Path(__file__).with_name("BENCH_lint.json")

#: The warm-run speedup gate.  Empirically warm runs land around 15x;
#: 5x leaves headroom for slow CI filesystems without letting a broken
#: cache (1x) slip through.
MIN_WARM_SPEEDUP = 5.0


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def test_bench_lint_cache(tmp_path):
    cache_dir = str(tmp_path / "cache")

    cold_s, cold = _timed(lambda: lint_paths([SRC], cache_dir=cache_dir))
    warm_s, warm = _timed(lambda: lint_paths([SRC], cache_dir=cache_dir))

    # Cache correctness: the warm run analyzed nothing and changed nothing.
    assert cold.cache_misses == cold.files_checked > 100
    assert warm.cache_misses == 0
    assert warm.cache_hits == warm.files_checked == cold.files_checked
    assert warm.findings == cold.findings
    assert warm.suppressed == cold.suppressed

    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm lint {warm_s:.3f}s vs cold {cold_s:.3f}s "
        f"({speedup:.1f}x < {MIN_WARM_SPEEDUP}x): cache not effective"
    )

    doc = {
        "bench": "lint",
        "analyzer_version": ANALYZER_VERSION,
        "rules": len(all_rules()),
        "files_checked": cold.files_checked,
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "warm_speedup": round(speedup, 2),
        "min_warm_speedup": MIN_WARM_SPEEDUP,
        "findings": len(cold.findings),
        "suppressed_inline": cold.suppressed,
    }
    ARTIFACT.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print("BENCH_lint:", json.dumps(doc, sort_keys=True))
