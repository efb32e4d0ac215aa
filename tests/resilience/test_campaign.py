"""The graceful-degradation acceptance campaign.

One short (0.8 simulated days) campaign run shared by all assertions:
the PFM stack is attacked on every surface and must degrade gracefully
-- the MEA cycle never dies silently, suppressed actions show up in
breaker counters, and no attacked scenario is less available than having
no PFM at all.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.resilience import (
    CampaignConfig,
    PFMFaultScenario,
    default_scenarios,
    run_campaign,
)


@pytest.fixture(scope="module")
def report():
    return run_campaign(
        CampaignConfig(
            horizon=0.8 * 86_400.0, attack_mtbf=1_800.0, attack_duration=1_200.0
        )
    )


class TestScenarios:
    def test_default_scenarios_cover_every_surface(self):
        scenarios = default_scenarios()
        assert len(scenarios) == 6
        covered = set()
        for scenario in scenarios:
            covered.update(scenario.attacks)
        assert covered == {
            "monitoring_dropout",
            "observation_corruption",
            "predictor_exceptions",
            "predictor_latency",
            "action_failures",
        }
        all_fronts = next(s for s in scenarios if s.name == "all-fronts")
        assert len(all_fronts.attacks) == 5

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(horizon=0.0)
        with pytest.raises(ConfigurationError):
            CampaignConfig(scenarios=[])

    def test_master_seed_derives_all_three(self):
        config = CampaignConfig(seed=5)
        assert config.seeds() == {"train": 5, "eval": 1005, "injection": 2005}

    def test_explicit_seeds_kept_without_master(self):
        config = CampaignConfig(train_seed=1, eval_seed=2, injection_seed=3)
        assert config.seeds() == {"train": 1, "eval": 2, "injection": 3}


class TestGracefulDegradation:
    def test_every_attacked_scenario_is_graceful(self, report):
        # The acceptance bar: PFM under attack may lose its benefit but
        # must never be worse than running without PFM.
        for result in report.attacked:
            assert report.graceful(result), result.spec.scenario
        assert report.all_graceful

    def test_healthy_pfm_beats_no_pfm(self, report):
        assert report.healthy.availability > report.baseline_availability

    def test_cycle_never_dies_silently(self, report):
        # Every run kept iterating for the whole horizon; anything that
        # went wrong inside a step is surfaced as a StepFailure record or
        # an absorbed fault counter, never a dead process.
        expected_min = int(0.8 * 86_400.0 / 30.0 * 0.5)
        for result in [report.healthy, *report.attacked]:
            assert result.mea_iterations > 0
            assert result.mea_iterations >= expected_min, result.spec.scenario

    def test_attacks_actually_happened(self, report):
        for result in report.attacked:
            assert result.attack_episodes > 0, result.spec.scenario

    def test_monitoring_attacks_absorbed_by_sanitizer(self, report):
        dropout = next(
            r for r in report.attacked if r.spec.scenario == "monitoring-dropout"
        )
        events = dropout.resilience["sanitizer_events"]
        assert sum(per_var.get("nan", 0) for per_var in events.values()) > 0

    @pytest.mark.parametrize(
        "scenario", ["predictor-exceptions", "predictor-latency"]
    )
    def test_predictor_attacks_fail_over_to_secondary(self, report, scenario):
        # Raising and slow primaries alike are predictor faults of the
        # FallbackPredictor (the latency one past its lead-time budget),
        # and the secondary scores in their place.
        attacked = next(r for r in report.attacked if r.spec.scenario == scenario)
        assert attacked.resilience["predictor_faults"] > 0
        assert attacked.resilience["fallback_scores"] > 0
        assert attacked.resilience["null_scores"] == 0

    def test_every_attack_is_absorbed_by_its_own_guard(self, report):
        # The sanitizer, the predictor fallback and the breakers absorb
        # every attack before it reaches the MEA cycle's step containment.
        for result in [report.healthy, *report.attacked]:
            assert result.resilience["step_failures"] == {}, result.spec.scenario

    def test_failing_actions_open_breakers(self, report):
        failures = next(
            r for r in report.attacked if r.spec.scenario == "action-failures"
        )
        assert failures.resilience["failed_actions"] > 0
        assert failures.resilience["breaker_opens"] > 0
        assert failures.resilience["calls_rejected"] > 0
        assert failures.resilience["escalations"] > 0


class TestReporting:
    def test_summary_mentions_every_scenario(self, report):
        text = report.summary()
        assert "no-PFM baseline" in text
        assert "healthy-pfm" in text
        for result in report.attacked:
            assert result.spec.scenario in text

    def test_json_roundtrip(self, report):
        doc = json.loads(report.to_json())
        assert doc["all_graceful"] is True
        assert doc["healthy"]["graceful"] is None
        assert len(doc["attacked"]) == len(report.attacked)
        for row in doc["attacked"]:
            assert row["cycle_survived"] is True


class TestTracing:
    def test_trace_dir_writes_the_fleet_trace(self, tmp_path):
        from repro.telemetry.tracing import read_merged_trace

        scenario = PFMFaultScenario("predictor-exceptions", predictor_exceptions=True)
        report = run_campaign(
            CampaignConfig(
                horizon=0.3 * 86_400.0, scenarios=[scenario], telemetry=True
            ),
            trace_dir=str(tmp_path),
        )
        lanes = [record["lane"] for record in read_merged_trace(str(tmp_path))]
        for result in [report.healthy, *report.attacked]:
            assert result.telemetry_events > 0
            assert lanes.count(result.spec.key()) == result.telemetry_events
        assert "trace_path" not in report.to_json()


class TestScenarioModel:
    def test_attacks_property(self):
        scenario = PFMFaultScenario(
            "x", monitoring_dropout=True, action_failures=True
        )
        assert scenario.attacks == ("monitoring_dropout", "action_failures")
        assert PFMFaultScenario("quiet").attacks == ()
