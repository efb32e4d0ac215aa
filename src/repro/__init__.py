"""Proactive Fault Management (PFM) reproduction library.

This package reproduces the system described in Salfner & Malek,
"Architecting Dependable Systems with Proactive Fault Management":

- ``repro.simulator``    -- discrete-event simulation engine
- ``repro.faults``       -- fault -> error -> symptom -> failure chain
- ``repro.monitoring``   -- monitoring infrastructure (time series + error log)
- ``repro.telecom``      -- synthetic telecom SCP case-study system
- ``repro.markov``       -- DTMC/CTMC/semi-Markov/HSMM mathematics
- ``repro.prediction``   -- online failure prediction (UBF, HSMM, baselines)
- ``repro.actions``      -- prediction-driven countermeasures
- ``repro.reliability``  -- CTMC availability/reliability/hazard model
- ``repro.core``         -- MEA cycle, blueprint architecture, experiments
- ``repro.fleet``        -- sharded multi-seed experiment campaigns
- ``repro.resilience``   -- hardening + PFM-targeted fault injection
- ``repro.telemetry``    -- sim-time spans, events and metrics

The curated top-level surface re-exports the experiment API — describe a
run with a :class:`RunSpec`, fan a grid with :func:`run_fleet`::

    from repro import RunSpec, grid, run_fleet
    report = run_fleet(grid(["closed-loop"], seeds=range(21, 25)))
    print(report.summary())

Everything re-exported here loads lazily: ``import repro`` stays cheap.
"""

from repro.version import __version__

__all__ = [
    "__version__",
    # fleet: the unified experiment API
    "RunSpec",
    "RunResult",
    "FleetReport",
    "grid",
    "run_fleet",
    # experiments
    "run_closed_loop",
    "run_campaign",
    "CampaignConfig",
    # predictors
    "make_predictor",
    "available_predictors",
    # telemetry
    "TelemetryHub",
]

_LAZY = {
    "RunSpec": ("repro.fleet.spec", "RunSpec"),
    "RunResult": ("repro.fleet.spec", "RunResult"),
    "FleetReport": ("repro.fleet.aggregate", "FleetReport"),
    "grid": ("repro.fleet.spec", "grid"),
    "run_fleet": ("repro.fleet.runner", "run_fleet"),
    "run_closed_loop": ("repro.core.experiment", "run_closed_loop"),
    "run_campaign": ("repro.resilience.campaign", "run_campaign"),
    "CampaignConfig": ("repro.resilience.campaign", "CampaignConfig"),
    "make_predictor": ("repro.prediction.registry", "make_predictor"),
    "available_predictors": ("repro.prediction.registry", "available_predictors"),
    "TelemetryHub": ("repro.telemetry.hub", "TelemetryHub"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
