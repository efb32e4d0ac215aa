"""Bench CL: measured closed-loop effect of PFM on the simulated SCP.

The experiment the paper's Sect. 5 models analytically: same faultload
run with and without the PFM controller.  The measured unavailability
ratio should agree in direction (and rough magnitude) with the model's
Eq. 14 prediction of ~0.44-0.49.
"""


from repro.core import run_closed_loop
from repro.fleet import RunSpec
from repro.reliability import PFMParameters, unavailability_ratio


def test_bench_closed_loop_vs_model(benchmark):
    result = benchmark.pedantic(
        run_closed_loop,
        args=(RunSpec(train_seed=11, eval_seed=23, horizon=3 * 86_400.0),),
        rounds=1,
        iterations=1,
    )
    model_ratio = unavailability_ratio(PFMParameters.paper_example())

    print("\n=== Closed loop: measured PFM effect ===")
    print(result.summary())
    print(f"model's Eq.14 ratio (Table 2 params): {model_ratio:.3f}")
    print(f"measured ratio: {result.unavailability_ratio:.3f}")

    # Direction: PFM reduces failures and unavailability.
    assert result.pfm_failures < result.baseline_failures
    assert result.unavailability_ratio < 1.0
    # Magnitude: same regime as the analytical model ("roughly half").
    assert result.unavailability_ratio < 0.75
