"""Public-API surface checks: everything advertised imports and exists."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro.simulator",
    "repro.faults",
    "repro.monitoring",
    "repro.telecom",
    "repro.markov",
    "repro.prediction",
    "repro.prediction.ubf",
    "repro.prediction.hsmm",
    "repro.prediction.baselines",
    "repro.actions",
    "repro.reliability",
    "repro.core",
    "repro.reporting",
    "repro.telemetry",
    "repro.fleet",
    "repro.resilience",
    "repro.cli",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_package_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", PACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", []):
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


LOADED_SCIPY = (
    "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
)


def _run_fresh(code: str) -> str:
    """Stdout of ``code`` run by a fresh interpreter on this ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(repro.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.strip()


def test_public_imports_leave_scipy_unloaded():
    """No scipy module on the import path: ``scipy.optimize`` alone costs
    about 50 MiB and 0.3 s of every process's start.

    A fresh interpreter imports every package above and resolves every
    name it exports.
    """
    code = (
        "import importlib, sys\n"
        f"for name in ['repro', *{PACKAGES!r}]:\n"
        "    module = importlib.import_module(name)\n"
        "    for symbol in getattr(module, '__all__', []):\n"
        "        getattr(module, symbol)\n" + LOADED_SCIPY
    )
    assert _run_fresh(code) == "[]"


def test_training_and_runs_leave_scipy_unloaded():
    """Nor on the run path: the default UBF's training, a closed loop, and
    a Noisy-OR panel's fit (its HSMM member included), at a tiny horizon.

    The same path leaves ``numpy.ma`` unloaded too: ``np.unique`` and
    ``np.median`` import it on first use, at about 10 ms per process."""
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from repro import RunSpec, run_closed_loop\n"
        "from repro.core.experiment import DEFAULT_VARIABLES, train_predictor, train_spec\n"
        "from repro.prediction import make_predictor\n"
        "from repro.telecom.dataset import DatasetConfig\n"
        "spec = RunSpec(train_seed=11, eval_seed=21, horizon=21_600.0)\n"
        "run_closed_loop(spec, trained=train_spec(spec))\n"
        "panel = make_predictor(\n"
        "    {'name': 'noisy-or', 'members': ['ubf', 'hsmm', 'rate']},\n"
        "    rng=np.random.default_rng(11),\n"
        ")\n"
        "train_predictor(DatasetConfig(seed=11, horizon=21_600.0), DEFAULT_VARIABLES, panel)\n"
        + LOADED_SCIPY
        + "print('numpy.ma' in sys.modules)\n"
    )
    assert _run_fresh(code).splitlines() == ["[]", "False"]


def test_version_exposed():
    assert isinstance(repro.__version__, str)
    assert repro.__version__.count(".") == 2


def test_top_level_surface_pinned():
    """The curated ``repro`` namespace: the one-import experiment API."""
    assert set(repro.__all__) == {
        "__version__",
        "RunSpec",
        "RunResult",
        "FleetReport",
        "grid",
        "run_fleet",
        "run_closed_loop",
        "run_campaign",
        "CampaignConfig",
        "make_predictor",
        "available_predictors",
        "TelemetryHub",
    }


def test_top_level_exports_resolve_lazily():
    for symbol in repro.__all__:
        assert getattr(repro, symbol) is not None
    with pytest.raises(AttributeError):
        repro.not_a_symbol


def test_top_level_identity_matches_canonical_modules():
    from repro.fleet.spec import RunSpec
    from repro.prediction.registry import make_predictor

    assert repro.RunSpec is RunSpec
    assert repro.make_predictor is make_predictor


def test_exception_hierarchy():
    from repro import errors

    for name in [
        "SimulationError",
        "ModelError",
        "NotFittedError",
        "ConfigurationError",
        "ActionError",
    ]:
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError)
        assert issubclass(exc, Exception)


def test_quickstart_snippet_from_readme():
    """The README's quickstart code must actually run."""
    from repro.reliability import PFMModel, PFMParameters, unavailability_ratio

    params = PFMParameters.paper_example()
    model = PFMModel(params)
    assert 0.9 < model.availability() < 1.0
    assert 0.0 < unavailability_ratio(params) < 1.0
    assert 0.0 < model.reliability(10_000.0) < 1.0
    assert model.hazard_rate(500.0) > 0.0
