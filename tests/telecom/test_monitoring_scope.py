"""Monitoring scope changes what a run samples and nothing else.

``prepare_simulation(config, monitor=...)`` names the gauges a run's
collector samples: every gauge (``None``), a predictor's variables, or
none at all.  Gauge reads draw no random numbers and write no state, so
the same seed and countermeasure script give the same SLA windows, logs
and component state under every scope; only the engine's event count
differs, by the collector's samples.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.controller import PFMController
from repro.core.experiment import (
    DEFAULT_VARIABLES,
    resolve_spec,
    run_closed_loop,
    train_spec,
)
from repro.errors import ConfigurationError
from repro.fleet.shards import clear_training_cache
from repro.fleet.spec import RunSpec
from repro.monitoring.collectors import PeriodicCollector
from repro.resilience.campaign import (
    HEALTHY_PFM,
    NO_PFM,
    CampaignConfig,
    campaign_specs,
    default_scenarios,
    run_scenario_spec,
)
from repro.telecom.dataset import DatasetConfig, prepare_simulation

from .test_tick_equivalence import HORIZON, _renumber_faults, _script

#: A six-hour closed loop; its training trace holds SLA failures.
SPEC = RunSpec(
    seed=21,
    train_seed=11,
    eval_seed=21,
    horizon=21_600.0,
    options={"dataset": {"lead_time": 600.0}},
)


def _simulate(monitor) -> dict:
    run = prepare_simulation(DatasetConfig(seed=11, horizon=HORIZON), monitor=monitor)
    _script(run)
    dataset = run.run()
    system = run.system
    return {
        "dataset": dataset,
        "collector": run.collector,
        "windows": list(system.sla.windows),
        "failures": system.failure_log.records,
        "errors": _renumber_faults(system.error_log.records),
        "ticks_run": system.ticks_run,
        "processed_events": run.engine.processed_events,
        "rejected_requests": system.rejected_requests,
        "last": (
            system.last_request_rate,
            system.last_mean_rt,
            system.last_violation_prob,
        ),
        "components": [
            (c.utilization, c.last_stretch, c.leaked_mb, c.restarts)
            for c in system.all_components()
        ],
    }


@pytest.fixture(scope="module")
def runs():
    return {
        "all": _simulate(None),
        "predictor": _simulate(DEFAULT_VARIABLES),
        "none": _simulate(()),
    }


class TestScriptedRun:
    def test_scopes_sample_what_they_name(self, runs):
        assert len(runs["all"]["dataset"].variables) == 57
        assert runs["predictor"]["dataset"].variables == sorted(DEFAULT_VARIABLES)
        assert runs["none"]["collector"] is None
        assert runs["none"]["dataset"].variables == []

    @pytest.mark.parametrize("scope", ["predictor", "none"])
    def test_windows_logs_and_state_identical(self, runs, scope):
        full, scoped = runs["all"], runs[scope]
        assert len(full["failures"]) > 0
        for key in (
            "windows",
            "failures",
            "errors",
            "ticks_run",
            "rejected_requests",
            "last",
            "components",
        ):
            assert scoped[key] == full[key], key

    def test_events_differ_by_the_collector_samples(self, runs):
        samples = runs["all"]["collector"].samples_taken
        assert samples == int(HORIZON / 30.0) + 1
        assert runs["predictor"]["collector"].samples_taken == samples
        assert runs["predictor"]["processed_events"] == runs["all"]["processed_events"]
        assert (
            runs["all"]["processed_events"] - runs["none"]["processed_events"]
            == samples
        )

    def test_training_data_equals_the_full_stores(self, runs):
        full = runs["all"]["dataset"].training_data(variables=DEFAULT_VARIABLES)
        scoped = runs["predictor"]["dataset"].training_data(
            variables=DEFAULT_VARIABLES
        )
        assert full.x.shape[1] == len(DEFAULT_VARIABLES)
        assert np.array_equal(scoped.x, full.x)
        assert np.array_equal(scoped.y, full.y)
        assert np.array_equal(scoped.labels, full.labels)

    def test_unmonitored_run_has_no_samples_to_read(self, runs):
        dataset = runs["none"]["dataset"]
        with pytest.raises(ConfigurationError, match="monitored no variables"):
            dataset.ubf_samples()
        with pytest.raises(ConfigurationError, match="never recorded"):
            dataset.training_data(variables=DEFAULT_VARIABLES)

    def test_unknown_gauge_names_rejected(self):
        with pytest.raises(ConfigurationError, match="cpu_utilisation"):
            prepare_simulation(
                DatasetConfig(seed=11, horizon=HORIZON),
                monitor=["cpu_utilization", "cpu_utilisation"],
            )


class TestEvaluationRun:
    @pytest.fixture(scope="class")
    def controllers(self):
        predictor, scores = train_spec(SPEC)
        variables, _, eval_config = resolve_spec(SPEC)

        def evaluate(monitor) -> PFMController:
            run = prepare_simulation(eval_config, monitor=monitor)
            controller = PFMController(
                system=run.system,
                predictor=predictor,
                variables=variables,
                lead_time=eval_config.lead_time,
            )
            controller.calibrate_confidence(scores)
            controller.start()
            run.run()
            return controller

        return evaluate(None), evaluate(())

    def test_controller_decisions_identical(self, controllers):
        monitored, unmonitored = controllers
        assert monitored.evaluations
        assert any(episode.action for episode in monitored.warnings)
        assert unmonitored.evaluations == monitored.evaluations
        assert unmonitored.warnings == monitored.warnings
        assert unmonitored.outcome_matrix() == monitored.outcome_matrix()


@pytest.fixture()
def samples(monkeypatch):
    """``(collector id, gauge count)`` of every collector sample taken."""
    calls: list[tuple[int, int]] = []
    original = PeriodicCollector.sample_once

    def spy(self):
        calls.append((id(self), len(self.gauges)))
        return original(self)

    monkeypatch.setattr(PeriodicCollector, "sample_once", spy)
    return calls


def _one_training_run(calls, horizon: float) -> bool:
    """Whether ``calls`` are one collector's samples of the predictor's
    variables over ``horizon``."""
    return (
        len(calls) == int(horizon / 30.0) + 1
        and {count for _, count in calls} == {len(DEFAULT_VARIABLES)}
        and len({collector for collector, _ in calls}) == 1
    )


class TestOnlyTrainingSamples:
    def test_closed_loop(self, samples):
        run_closed_loop(SPEC)
        assert _one_training_run(samples, SPEC.horizon)

    def test_campaign_shards(self, samples):
        no_pfm, healthy, _ = campaign_specs(
            CampaignConfig(
                train_seed=11,
                eval_seed=21,
                injection_seed=2021,
                horizon=SPEC.horizon,
                scenarios=default_scenarios()[:1],
            )
        )
        assert (no_pfm.scenario, healthy.scenario) == (NO_PFM, HEALTHY_PFM)
        run_scenario_spec(no_pfm)
        assert samples == []
        clear_training_cache()
        try:
            run_scenario_spec(healthy)
        finally:
            clear_training_cache()
        assert _one_training_run(samples, SPEC.horizon)
