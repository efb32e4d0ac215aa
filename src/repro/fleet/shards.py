"""Shard execution: turn one :class:`RunSpec` into one :class:`RunResult`.

A shard is fully self-contained — it derives every RNG seed from the
spec, trains its own predictor (through a per-process memo cache, so a
worker that sees ten shards with the same training configuration trains
once), runs the simulation, and returns a picklable result.  That
self-containment is what makes the K-shard parallel run bit-identical to
the serial run: no shard reads state another shard wrote.

Scenario dispatch is by name:

- ``closed-loop`` — fetch the cached model, then call
  :func:`repro.core.run_closed_loop` with the spec, which replays one
  faultload with and without the PFM controller;
- everything else is routed to the PFM fault-injection campaign
  (:func:`repro.resilience.campaign.run_scenario_spec`): ``no-pfm``,
  ``healthy-pfm``, and any attacked scenario whose attack surfaces are
  carried in ``spec.options["attacks"]``.

Both resolve a spec's variables and datasets through
:func:`repro.core.experiment.resolve_spec`, so a shard and a direct call
of the same spec give the same answer.

Custom workloads plug in via :func:`register_scenario_runner`.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import ConfigurationError
from repro.fleet.spec import CLOSED_LOOP, RunResult, RunSpec

# ----------------------------------------------------------------------
# Per-process training cache
# ----------------------------------------------------------------------

#: Trained-model memo, keyed by hashable training configuration.  Lives at
#: module level so each worker process (and the serial backend) trains a
#: given configuration exactly once.  Training is deterministic given the
#: key, so a cache hit and a fresh train are interchangeable — the
#: property the parallel/serial equality guarantee rests on.
_TRAIN_CACHE: dict = {}


def cached_training(key, builder: Callable):
    """The trained model for ``key``: memo, then artifact store, then build.

    Lookup order is (1) the per-process memo, (2) the process's active
    :class:`~repro.fleet.artifacts.ArtifactStore` (where a pre-warm pass
    or another worker already published the model), and only then (3)
    ``builder()`` — whose product is published back to the store so every
    later process loads instead of training.
    """
    if key in _TRAIN_CACHE:
        return _TRAIN_CACHE[key]
    from repro.fleet.artifacts import active_artifact_store

    store = active_artifact_store()
    trained = store.load(key) if store is not None else None
    if trained is None:
        trained = builder()
        if store is not None:
            store.save(key, trained)
    _TRAIN_CACHE[key] = trained
    return trained


def seed_training_cache(key, trained) -> None:
    """Pre-populate the cache (benchmarks inject pre-trained models)."""
    _TRAIN_CACHE[key] = trained


def clear_training_cache() -> None:
    """Drop every cached model (tests; memory pressure)."""
    _TRAIN_CACHE.clear()


# ----------------------------------------------------------------------
# Scenario runners
# ----------------------------------------------------------------------

_RUNNERS: dict[str, Callable[[RunSpec], RunResult]] = {}


def register_scenario_runner(
    name: str, runner: Callable[[RunSpec], RunResult], overwrite: bool = False
) -> None:
    """Make scenario ``name`` executable by the fleet.

    The runner receives the spec and must return a :class:`RunResult`.
    Registration happens at import time of the defining module, so worker
    processes inherit it (the pool forks after imports).
    """
    if name in _RUNNERS and not overwrite:
        raise ConfigurationError(f"scenario runner {name!r} already registered")
    _RUNNERS[name] = runner


def _closed_loop_training_plan(spec: RunSpec):
    """``(train_key, builder)`` for a closed-loop shard.

    Shared by the in-shard training path and the fleet's pre-warm pass,
    so both address the identical cache/artifact entry.
    """
    from repro.core import experiment

    variables, train_config, _ = experiment.resolve_spec(spec)
    train_key = (
        CLOSED_LOOP,
        spec.predictor,
        spec.predictor_params,
        train_config.seed,
        spec.horizon,
        tuple(variables),
        repr(experiment.spec_dataset(spec)),
    )
    return train_key, lambda: experiment.train_spec(spec)


def _closed_loop_runner(spec: RunSpec) -> RunResult:
    from repro.core.experiment import run_closed_loop
    from repro.telemetry.hub import TelemetryHub
    from repro.telemetry.sinks import NULL_SINK
    from repro.telemetry.tracing import announce_shard_hub

    trained = cached_training(*_closed_loop_training_plan(spec))
    # Only a trace capture reads the events: announcing arms its sink.
    hub = TelemetryHub(sink=NULL_SINK, keep_spans=False) if spec.telemetry else None
    announce_shard_hub(hub)
    wall_start = time.perf_counter()
    result = run_closed_loop(spec, trained=trained, telemetry=hub)
    wall_seconds = time.perf_counter() - wall_start

    return RunResult(
        spec=spec,
        availability=result.pfm_window_availability,
        failures=result.pfm_failures,
        baseline_availability=result.baseline_window_availability,
        baseline_failures=result.baseline_failures,
        mea_iterations=result.mea_iterations,
        warnings_raised=result.warnings_raised,
        actions_taken=result.actions_taken,
        outcome_matrix=result.outcome_matrix,
        telemetry_events=hub.published_events if hub is not None else 0,
        metrics_state=hub.registry.to_state() if hub is not None else None,
        wall_seconds=wall_seconds,
    )


register_scenario_runner(CLOSED_LOOP, _closed_loop_runner)


# ----------------------------------------------------------------------
# Training plans (what the artifact-store pre-warm pass walks)
# ----------------------------------------------------------------------

#: scenario name -> plan(spec) -> (train_key, builder) | None
_TRAINING_PLANS: dict[str, Callable] = {CLOSED_LOOP: _closed_loop_training_plan}


def register_training_plan(name: str, plan: Callable, overwrite: bool = False) -> None:
    """Declare how scenario ``name`` trains, for pre-warming.

    ``plan(spec)`` returns ``(train_key, builder)`` — the exact pair the
    scenario's runner hands to :func:`cached_training` — or ``None`` for
    specs that need no training.  Scenarios without a registered plan
    still run; they just cannot be pre-warmed.
    """
    if name in _TRAINING_PLANS and not overwrite:
        raise ConfigurationError(f"training plan {name!r} already registered")
    _TRAINING_PLANS[name] = plan


def training_plan(spec: RunSpec):
    """``(train_key, builder)`` for ``spec``, or ``None`` when unknown.

    Campaign scenarios resolve lazily through
    :func:`repro.resilience.campaign.training_plan_for_spec`, mirroring
    :func:`execute_spec`'s runner dispatch.
    """
    plan = _TRAINING_PLANS.get(spec.scenario)
    if plan is None:
        from repro.resilience import campaign

        if campaign.knows_scenario(spec):
            plan = campaign.training_plan_for_spec
        else:
            return None
    return plan(spec)


def execute_spec(spec: RunSpec, attempt: int = 1) -> RunResult:
    """Run one shard in this process (the worker entry point).

    Module-level (hence picklable) so a ``ProcessPoolExecutor`` can ship
    it; the campaign runners resolve lazily to keep import cycles out of
    the fleet substrate.

    When fleet tracing is armed in this process (the worker initializer
    installed a :class:`~repro.telemetry.tracing.TraceContext`), the
    runner call is bracketed by a capture window: whatever telemetry
    hubs the runner announces are serialized to the shard's JSONL
    sidecar after the run succeeds.  ``attempt`` stamps the sidecar
    header only — a retried shard's event lines byte-match the first
    attempt's, which is how the determinism contract checks that a
    restarted worker's trace is complete.  Tracing reads the hubs, never
    mutates them, so results are identical with tracing on or off.
    """
    runner = _RUNNERS.get(spec.scenario)
    if runner is None:
        from repro.resilience import campaign

        if campaign.knows_scenario(spec):
            runner = campaign.run_scenario_spec
        else:
            raise ConfigurationError(
                f"no runner for scenario {spec.scenario!r}; known: "
                f"{sorted(_RUNNERS) + sorted(campaign.known_scenario_names())}"
            )

    from repro.telemetry import tracing

    context = tracing.active_trace()
    if context is None:
        return runner(spec)

    tracing.begin_shard_capture()
    try:
        result = runner(spec)
    finally:
        hubs = tracing.end_shard_capture()
    tracing.write_shard_trace(context, spec.key(), hubs, attempt=attempt)
    return result
