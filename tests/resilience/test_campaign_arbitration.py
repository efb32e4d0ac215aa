"""Campaign with a Noisy-OR primary: spec plumbing and fused-vs-single report.

One short (0.5 simulated days) campaign run with a three-member panel is
shared by all integration assertions; everything else is pure plumbing.
"""

import json

import numpy as np
import pytest

import repro.resilience.campaign as campaign_module
from repro.errors import ConfigurationError
from repro.fleet.spec import RunSpec
from repro.prediction.arbitration import NoisyOrArbitrator
from repro.prediction.registry import normalize_predictor_spec
from repro.resilience.campaign import (
    CampaignConfig,
    PFMFaultScenario,
    _config_from_spec,
    _predictor_quality,
    _train_key,
    _train_models,
    campaign_specs,
    run_campaign,
    training_plan_for_spec,
)
from repro.telecom.dataset import TelecomDataset

PANEL = {
    "name": "noisy-or",
    "members": ["ubf", "hsmm", "rate"],
    "criticality": {"hsmm": 0.8},
}


@pytest.fixture(scope="module")
def report():
    return run_campaign(
        CampaignConfig(
            seed=7,
            horizon=0.5 * 86_400.0,
            predictor=PANEL,
            scenarios=[
                PFMFaultScenario(
                    "predictor-exceptions", predictor_exceptions=True
                )
            ],
        )
    )


class TestSpecPlumbing:
    def test_default_campaign_omits_predictor_option(self):
        """Bare-ubf campaigns keep their historical shard identities."""
        for spec in campaign_specs(CampaignConfig()):
            assert spec.option("predictor") is None
        assert _config_from_spec(RunSpec(scenario="healthy-pfm")).predictor == {
            "name": "ubf"
        }

    def test_panel_rides_in_spec_options(self):
        config = CampaignConfig(predictor=PANEL)
        specs = campaign_specs(config)
        carried = specs[1].option("predictor")
        assert carried["name"] == "noisy-or"
        rebuilt = _config_from_spec(specs[1])
        assert rebuilt.predictor == config.predictor

    def test_panel_without_criticality_rebuilds_from_its_spec(self):
        """Spec options store the empty criticality map as an empty list."""
        panel = {"name": "noisy-or", "members": ["ubf", "rate"]}
        config = CampaignConfig(
            train_seed=11,
            eval_seed=21,
            injection_seed=2021,
            horizon=21_600.0,
            scenarios=[PFMFaultScenario("monitoring-dropout", monitoring_dropout=True)],
            predictor=panel,
        )
        spec = campaign_specs(config)[1]
        assert _config_from_spec(spec).predictor == config.predictor
        assert normalize_predictor_spec(
            spec.option("predictor")
        ) == normalize_predictor_spec(panel)

    def test_train_key_distinguishes_predictors(self):
        default = campaign_specs(CampaignConfig())[1]
        panel = campaign_specs(CampaignConfig(predictor=PANEL))[1]
        assert _train_key(default) != _train_key(panel)

    def test_spec_fields_name_the_panel_a_shard_trains(self, monkeypatch):
        """A shard built by hand names its predictor as a closed-loop spec does."""
        spec = RunSpec(
            scenario="healthy-pfm",
            predictor="noisy-or",
            predictor_params={"members": ["ubf", "rate"]},
        )
        panel = normalize_predictor_spec({"name": "noisy-or", "members": ["ubf", "rate"]})
        assert _config_from_spec(spec).predictor == panel
        assert _train_key(spec) != _train_key(RunSpec(scenario="healthy-pfm"))

        built = []

        class Built(Exception):
            """The predictor is all this test reads: skip the simulation."""

        def simulate_and_train(config, variables, predictor):
            built.append(predictor)
            raise Built

        monkeypatch.setattr(campaign_module, "simulate_and_train", simulate_and_train)
        _, train = training_plan_for_spec(spec)
        with pytest.raises(Built):
            train()
        assert isinstance(built[0], NoisyOrArbitrator)
        assert [member.name for member in built[0].members] == ["ubf", "rate"]

    def test_two_different_predictors_are_refused(self):
        spec = RunSpec(
            scenario="healthy-pfm", predictor="rate", options={"predictor": PANEL}
        )
        with pytest.raises(ConfigurationError):
            _config_from_spec(spec)
        agreeing = RunSpec(
            scenario="healthy-pfm",
            predictor="noisy-or",
            predictor_params={k: v for k, v in PANEL.items() if k != "name"},
            options={"predictor": PANEL},
        )
        assert _config_from_spec(agreeing).predictor == CampaignConfig(
            predictor=PANEL
        ).predictor

    def test_campaign_specs_keep_their_train_keys(self):
        default = campaign_specs(CampaignConfig())[1]
        panel = campaign_specs(CampaignConfig(predictor=PANEL))[1]
        assert _train_key(default)[-1] == "None"
        assert _train_key(panel)[-1] == repr(panel.option("predictor"))

    def test_config_normalizes_predictor(self):
        assert CampaignConfig().predictor == {"name": "ubf"}
        config = CampaignConfig(predictor=PANEL)
        assert [m["alias"] for m in config.predictor["members"]] == [
            "ubf",
            "hsmm",
            "rate",
        ]


class TestTrainingQuality:
    def test_quality_reads_the_probabilities_the_fit_kept(self, monkeypatch):
        """The member rows come from the panel's fit, not a third scoring
        pass, and equal the rows of a rescored training batch."""
        datasets = []
        original = TelecomDataset.training_data

        def keep(self, *args, **kwargs):
            datasets.append(original(self, *args, **kwargs))
            return datasets[-1]

        monkeypatch.setattr(TelecomDataset, "training_data", keep)
        spec = campaign_specs(
            CampaignConfig(
                train_seed=11, eval_seed=21, horizon=21_600.0, predictor=PANEL
            )
        )[1]
        primary, secondary, training_scores, quality = _train_models(spec)
        (data,) = datasets

        rescored = primary.member_probabilities(data.batch())
        assert np.array_equal(primary.training_probabilities, rescored)
        primary.training_probabilities = rescored
        expected = _predictor_quality(
            primary,
            secondary,
            data,
            training_scores,
            secondary.score_samples(data.x),
        )
        assert set(quality["members"]) == {"ubf", "hsmm", "rate"}
        assert json.dumps(quality, sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )


class TestFusedCampaign:
    def test_quality_comparison_in_report(self, report):
        quality = report.predictor_quality
        assert quality["primary"]["name"] == "noisy-or"
        assert set(quality["members"]) == {"ubf", "hsmm", "rate"}
        assert quality["members"]["hsmm"]["criticality"] == 0.8
        assert "best_single" in quality
        assert "fused_minus_best_single_auc" in quality
        for entry in [quality["primary"], *quality["members"].values()]:
            assert 0.0 <= entry["precision"] <= 1.0
            assert 0.0 <= entry["recall"] <= 1.0

    def test_fused_scores_behave_as_probabilities(self, report):
        """The fused operating threshold lives on the probability scale."""
        assert 0.0 <= report.predictor_quality["primary"]["threshold"] <= 1.0

    def test_campaign_stays_graceful_with_panel(self, report):
        assert report.all_graceful
        assert report.healthy.mea_iterations > 0

    def test_report_json_carries_the_panel(self, report):
        doc = json.loads(report.to_json())
        assert doc["predictor"]["name"] == "noisy-or"
        aliases = [m["alias"] for m in doc["predictor"]["members"]]
        assert aliases == ["ubf", "hsmm", "rate"]
        assert doc["predictor_quality"]["primary"]["name"] == "noisy-or"

    def test_summary_mentions_fused_vs_single(self, report):
        text = report.summary()
        assert "primary [noisy-or]" in text
        assert "fused vs best single" in text
