"""Campaign <-> fleet plumbing (pure spec mapping; no simulations)."""

import pytest

from repro.errors import ConfigurationError
from repro.fleet.artifacts import train_key_digest
from repro.fleet.shards import training_plan
from repro.fleet.spec import RunSpec
from repro.resilience.campaign import (
    HEALTHY_PFM,
    NO_PFM,
    CampaignConfig,
    PFMFaultScenario,
    _config_from_spec,
    _scenario_from_spec,
    _train_key,
    campaign_specs,
    knows_scenario,
    known_scenario_names,
)


class TestKnownScenarios:
    def test_names_cover_baseline_healthy_and_defaults(self):
        names = known_scenario_names()
        assert NO_PFM in names
        assert HEALTHY_PFM in names
        assert "all-fronts" in names

    def test_knows_named_and_attack_carrying_specs(self):
        assert knows_scenario(RunSpec(scenario="monitoring-dropout"))
        assert knows_scenario(
            RunSpec(scenario="custom", options={"attacks": ["action_failures"]})
        )
        assert not knows_scenario(RunSpec(scenario="custom"))


class TestScenarioFromSpec:
    def test_attacks_travel_in_options(self):
        spec = RunSpec(
            scenario="my-attack",
            options={"attacks": ["monitoring_dropout", "action_failures"]},
        )
        scenario = _scenario_from_spec(spec)
        assert scenario.name == "my-attack"
        assert scenario.monitoring_dropout
        assert scenario.action_failures
        assert not scenario.predictor_exceptions

    def test_default_scenarios_resolve_by_name(self):
        scenario = _scenario_from_spec(RunSpec(scenario="predictor-latency"))
        assert scenario.predictor_latency

    def test_unknown_attack_tag_rejected(self):
        spec = RunSpec(scenario="x", options={"attacks": ["bogus"]})
        with pytest.raises(ConfigurationError, match="bogus"):
            _scenario_from_spec(spec)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown campaign"):
            _scenario_from_spec(RunSpec(scenario="never-heard-of-it"))


class TestCampaignSpecs:
    def test_order_and_seed_derivation(self):
        config = CampaignConfig(seed=5, horizon=86_400.0)
        specs = campaign_specs(config)
        assert [s.scenario for s in specs[:2]] == [NO_PFM, HEALTHY_PFM]
        assert len(specs) == 2 + len(config.scenarios)
        for spec in specs:
            assert spec.seeds() == {"train": 5, "eval": 1005, "injection": 2005}
            assert spec.horizon == 86_400.0

    def test_attacked_specs_carry_their_surfaces(self):
        config = CampaignConfig(
            scenarios=[PFMFaultScenario("solo", predictor_exceptions=True)]
        )
        spec = campaign_specs(config)[2]
        assert spec.option("attacks") == ["predictor_exceptions"]
        assert _scenario_from_spec(spec).predictor_exceptions

    def test_all_shards_share_one_training_key(self):
        specs = campaign_specs(CampaignConfig(seed=5))
        keys = {_train_key(spec) for spec in specs[1:]}
        assert len(keys) == 1

    def test_spec_keys_unique(self):
        specs = campaign_specs(CampaignConfig())
        assert len({s.key() for s in specs}) == len(specs)

    def test_default_keys_are_pinned(self):
        """Existing ledgers and artifact stores must keep resuming."""
        specs = campaign_specs(CampaignConfig())
        assert [s.key() for s in specs] == [
            "no-pfm:ubf:seed11:be7729af1050",
            "healthy-pfm:ubf:seed11:23921abbb20a",
            "monitoring-dropout:ubf:seed11:a724aa70fe03",
            "observation-corruption:ubf:seed11:17155a93d5d3",
            "predictor-exceptions:ubf:seed11:740bb948f05c",
            "predictor-latency:ubf:seed11:b70a5835542a",
            "action-failures:ubf:seed11:345277ee8f7b",
            "all-fronts:ubf:seed11:88fac81f3a1f",
        ]
        closed_loop = RunSpec(seed=21, train_seed=11, eval_seed=21, horizon=21_600.0)
        assert [
            train_key_digest(training_plan(spec)[0])[:16]
            for spec in (closed_loop, specs[1])
        ] == ["59986f87df17fdb2", "095cf4584e7c5ad0"]


class TestConfigFromSpec:
    def test_round_trip_preserves_seeds_and_knobs(self):
        config = CampaignConfig(
            seed=7,
            horizon=86_400.0,
            attack_mtbf=1800.0,
            attack_duration=600.0,
            telemetry=True,
        )
        spec = campaign_specs(config)[2]
        rebuilt = _config_from_spec(spec)
        assert rebuilt.seeds() == config.seeds()
        assert rebuilt.horizon == config.horizon
        assert rebuilt.attack_mtbf == 1800.0
        assert rebuilt.attack_duration == 600.0
        assert rebuilt.telemetry

    def test_defaults_when_options_absent(self):
        rebuilt = _config_from_spec(RunSpec(scenario=HEALTHY_PFM, seed=3))
        assert rebuilt.attack_mtbf == 3600.0
        assert rebuilt.attack_duration == 1200.0
        assert rebuilt.attack_latency == 1800.0
        assert not rebuilt.telemetry
