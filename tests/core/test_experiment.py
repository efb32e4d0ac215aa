"""Closed-loop experiment tests.

These run real (short) simulations including predictor training, so they
are the slowest tests in the suite; the horizon is kept at two simulated
days, enough for a handful of fault episodes.
"""

import inspect

import numpy as np
import pytest

from repro.core import run_closed_loop
from repro.core.experiment import DEFAULT_VARIABLES, resolve_spec, train_predictor
from repro.fleet import RunSpec, run_fleet
from repro.fleet.shards import execute_spec
from repro.prediction import make_predictor
from repro.prediction.thresholds import max_f_threshold
from repro.telecom.dataset import DatasetConfig, TelecomDataset


@pytest.fixture(scope="module")
def result():
    return run_closed_loop(RunSpec(train_seed=11, eval_seed=21, horizon=2 * 86_400.0))


class TestClosedLoop:
    def test_pfm_reduces_failures(self, result):
        assert result.pfm_failures < result.baseline_failures

    def test_pfm_improves_window_availability(self, result):
        assert (
            result.pfm_window_availability > result.baseline_window_availability
        )

    def test_measured_ratio_below_one(self, result):
        """The measured counterpart of Eq. 14: PFM cuts unavailability."""
        assert result.unavailability_ratio < 0.9

    def test_warnings_and_actions_happened(self, result):
        assert result.warnings_raised > 0
        assert result.actions_taken > 0
        assert sum(result.actions_by_name.values()) == result.actions_taken

    def test_table1_matrix_structure(self, result):
        """Table 1 semantics: actions only ever follow positive
        predictions; negatives are left alone."""
        matrix = result.outcome_matrix
        assert set(matrix) == {"TP", "FP", "TN", "FN"}
        assert matrix["TN"]["acted"] == 0
        assert matrix["FN"]["acted"] == 0
        assert matrix["TP"]["acted"] + matrix["FP"]["acted"] == result.actions_taken

    def test_summary_mentions_key_numbers(self, result):
        text = result.summary()
        assert "failures:" in text
        assert "unavailability ratio" in text


class TestReplication:
    """One predictor (``train_seed`` pinned), several faultloads, run as a
    fleet grid: PFM must lower unavailability on every faultload, not
    only on average."""

    @pytest.fixture(scope="class")
    def replicated(self):
        return run_fleet(
            [
                RunSpec(
                    scenario="closed-loop",
                    seed=seed,
                    train_seed=11,
                    eval_seed=seed,
                    horizon=1.5 * 86_400.0,
                )
                for seed in (21, 23)
            ],
            backend="serial",
        )

    def test_one_result_per_seed(self, replicated):
        assert [r.spec.eval_seed for r in replicated.results] == [21, 23]

    def test_improvement_on_every_seed(self, replicated):
        for result in replicated.results:
            assert result.unavailability_ratio < 1.0, result.spec.key()


class TestOneSpecOneAnswer:
    """A spec gives one answer whether run directly or as a fleet shard."""

    SPEC = RunSpec(
        seed=21,
        train_seed=11,
        eval_seed=21,
        horizon=21_600.0,
        options={"dataset": {"lead_time": 600.0}},
    )

    def test_spec_is_the_only_argument(self):
        assert list(inspect.signature(run_closed_loop).parameters) == [
            "spec",
            "trained",
            "telemetry",
        ]

    def test_dataset_option_resolves_for_train_and_eval(self):
        variables, train, evaluation = resolve_spec(self.SPEC)
        assert variables == DEFAULT_VARIABLES
        assert (train.seed, evaluation.seed) == (11, 21)
        assert train.horizon == evaluation.horizon == 21_600.0
        assert train.lead_time == evaluation.lead_time == 600.0
        assert resolve_spec(
            self.SPEC.replace(options={"dataset": DatasetConfig(lead_time=600.0)})
        ) == (variables, train, evaluation)

    def test_direct_run_and_shard_agree(self):
        direct = run_closed_loop(spec=self.SPEC)
        shard = execute_spec(self.SPEC)
        assert shard.availability == direct.pfm_window_availability
        assert shard.failures == direct.pfm_failures
        assert shard.baseline_availability == direct.baseline_window_availability
        assert shard.baseline_failures == direct.baseline_failures
        assert shard.warnings_raised == direct.warnings_raised
        assert shard.actions_taken == direct.actions_taken
        assert shard.mea_iterations == direct.mea_iterations
        assert shard.outcome_matrix == direct.outcome_matrix


#: Trains on 900-s error windows; the controller's default is 1 800 s.
SHORT_WINDOWS = {"dataset": {"data_window": 900.0}}


def _closed_loop_run():
    run_closed_loop(
        RunSpec(
            seed=11,
            eval_seed=21,
            horizon=43_200.0,
            predictor="noisy-or",
            predictor_params={"members": ["ubf", "rate"]},
            options=SHORT_WINDOWS,
        )
    )


def _campaign_shard_run():
    from repro.resilience.campaign import HEALTHY_PFM, run_scenario_spec

    run_scenario_spec(
        RunSpec(
            scenario=HEALTHY_PFM,
            seed=11,
            eval_seed=21,
            horizon=43_200.0,
            # A campaign shard takes its panel from the options.
            options={
                **SHORT_WINDOWS,
                "predictor": {"name": "noisy-or", "members": ["ubf", "rate"]},
            },
        )
    )


@pytest.mark.parametrize("run", [_closed_loop_run, _campaign_shard_run])
def test_live_error_windows_match_the_trained_length(run, monkeypatch):
    """A panel's event members score live error windows of the length
    they were trained on, not the controller's default."""
    import repro.core.controller as controller_module

    original = controller_module.error_window
    lengths = set()

    def spy(log, end, length, *args, **kwargs):
        lengths.add(length)
        return original(log, end, length, *args, **kwargs)

    monkeypatch.setattr(controller_module, "error_window", spy)
    run()
    assert lengths == {900.0}


class TestRepairMeasurement:
    @pytest.fixture(scope="class")
    def ttr(self):
        from repro.core import measure_repair_improvement

        return measure_repair_improvement(
            train_seed=11, eval_seed=21, horizon=1.5 * 86_400.0
        )

    def test_repairs_happen_in_both_runs(self, ttr):
        assert ttr.classical_repairs
        assert ttr.prepared_repairs

    def test_baseline_repairs_are_all_classical(self, ttr):
        """Without warnings the spare is never booted ahead of time."""
        assert all(r.reconfiguration >= 100.0 for r in ttr.classical_repairs)

    def test_preparation_reduces_mean_ttr(self, ttr):
        assert ttr.mean_prepared_ttr < ttr.mean_classical_ttr
        assert ttr.k_measured > 1.0


class TestTrainPredictor:
    def test_training_produces_calibrated_predictor(self):
        config = DatasetConfig(seed=11, horizon=2 * 86_400.0)
        predictor, scores = train_predictor(config)
        assert scores.size > 100
        # Threshold sits inside the observed score range.
        assert scores.min() <= predictor.threshold <= scores.max()

    def test_panel_scores_its_training_rows_once(self, monkeypatch):
        """A Noisy-OR panel's training scores are its fit's member scores,
        fused: equal to a fresh ``score_batch`` of the training rows, with
        the same threshold and attribution, and no member scores the rows
        a second time."""
        datasets = []
        original = TelecomDataset.training_data

        def keep(self, *args, **kwargs):
            datasets.append(original(self, *args, **kwargs))
            return datasets[-1]

        monkeypatch.setattr(TelecomDataset, "training_data", keep)
        panel = make_predictor(
            {
                "name": "noisy-or",
                "members": ["ubf", "hsmm", "rate"],
                "criticality": {"hsmm": 0.8},
            },
            rng=np.random.default_rng(21),
        )
        rows: dict[str, list[int]] = {m.name: [] for m in panel.members}
        for member in panel.members:
            score_batch = member.predictor.score_batch

            def spy(batch, _name=member.name, _score_batch=score_batch):
                rows[_name].append(len(batch))
                return _score_batch(batch)

            member.predictor.score_batch = spy

        config = DatasetConfig(seed=11, horizon=21_600.0, sample_interval=180.0)
        predictor, scores = train_predictor(config, DEFAULT_VARIABLES, panel)
        (data,) = datasets
        assert rows == {m.name: [len(data.labels)] for m in panel.members}

        attribution = predictor.last_attribution
        fresh = predictor.score_batch(data.batch())
        assert np.array_equal(scores, fresh)
        assert predictor.last_attribution == attribution
        assert predictor.threshold == max_f_threshold(fresh, data.labels)[0]

    def test_default_variables_exist_on_system(self):
        from repro.simulator import Engine, RandomStreams
        from repro.telecom import SCPConfig, SCPSystem

        system = SCPSystem(Engine(), RandomStreams(0), SCPConfig())
        gauges = {g.variable for g in system.all_gauges()}
        assert set(DEFAULT_VARIABLES) <= gauges
