"""Bench T1: the PFM behaviour matrix (paper Table 1).

Table 1 says: act on positive predictions (truly imminent or not), do
nothing on negative predictions.  We regenerate it from the closed-loop
experiment: every controller evaluation is classified TP/FP/TN/FN against
the failure log, together with whether a countermeasure ran.
"""

import pytest

from repro.core import run_closed_loop
from repro.fleet import RunSpec


@pytest.fixture(scope="module")
def closed_loop_result():
    return run_closed_loop(RunSpec(train_seed=11, eval_seed=21, horizon=3 * 86_400.0))


def test_bench_table1_behaviour_matrix(benchmark, closed_loop_result):
    result = closed_loop_result
    matrix = benchmark(lambda: result.outcome_matrix)

    print("\n=== Table 1: PFM behaviour by prediction outcome ===")
    print(f"{'outcome':<8s} {'predictions':>12s} {'acted on':>9s} {'paper says':<28s}")
    expectations = {
        "TP": "try to prevent / prepare",
        "FP": "unnecessary action",
        "TN": "no action",
        "FN": "no action (failure strikes)",
    }
    for outcome in ("TP", "FP", "TN", "FN"):
        cells = matrix[outcome]
        print(
            f"{outcome:<8s} {cells['count']:>12d} {cells['acted']:>9d} "
            f"{expectations[outcome]:<28s}"
        )
    print(f"actions by type: {result.actions_by_name}")

    # Table 1 semantics hold exactly:
    assert matrix["TN"]["acted"] == 0
    assert matrix["FN"]["acted"] == 0
    assert matrix["TP"]["acted"] > 0, "true warnings must trigger countermeasures"
    assert matrix["TP"]["acted"] + matrix["FP"]["acted"] == result.actions_taken
    # The predictor is informative: most evaluations are true negatives.
    assert matrix["TN"]["count"] > matrix["FP"]["count"]
