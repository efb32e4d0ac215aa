"""The declarative predictor registry behind fleet specs and the CLI."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.prediction.registry import (
    available_predictors,
    make_predictor,
    normalize_predictor_spec,
    register_predictor,
)

BUILTINS = [
    "ubf",
    "mset",
    "hsmm",
    "dft",
    "eventset",
    "trend",
    "rate",
    "failure-tracking",
]


class TestCatalog:
    def test_builtins_registered(self):
        names = available_predictors()
        for name in BUILTINS:
            assert name in names

    @pytest.mark.parametrize("name", BUILTINS)
    def test_every_builtin_constructs(self, name):
        predictor = make_predictor(name, seed=3)
        assert predictor is not None

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ConfigurationError, match="ubf"):
            make_predictor("nope")


class TestConstruction:
    def test_ubf_default_matches_closed_loop_configuration(self):
        predictor = make_predictor("ubf", rng=np.random.default_rng(0))
        assert predictor.network.n_kernels == 8
        assert predictor.network.max_opt_iter == 15
        assert predictor.wrapper.n_rounds == 6
        assert predictor.wrapper.samples_per_round == 8

    def test_params_forwarded(self):
        predictor = make_predictor("ubf", seed=0, n_kernels=4)
        assert predictor.network.n_kernels == 4

    def test_seed_pins_stochastic_construction(self):
        a = make_predictor("hsmm", seed=7)
        b = make_predictor("hsmm", seed=7)
        c = make_predictor("hsmm", seed=8)
        assert a.seed == b.seed
        assert a.seed != c.seed


class TestRegistration:
    def test_double_registration_rejected(self):
        register_predictor("test-only", lambda rng: object())
        try:
            with pytest.raises(ConfigurationError, match="already registered"):
                register_predictor("test-only", lambda rng: object())
            register_predictor("test-only", lambda rng: 42, overwrite=True)
            assert make_predictor("test-only") == 42
        finally:
            from repro.prediction import registry

            registry._REGISTRY.pop("test-only", None)

    def test_empty_name_rejected(self):
        with pytest.raises(ConfigurationError):
            register_predictor("", lambda rng: object())


class TestNestedSpecs:
    NESTED = {
        "name": "noisy-or",
        "members": ["ubf", "trend", {"name": "trend", "window": 12}],
        "criticality": {"trend": 0.5},
        "leak": 0.02,
    }

    def test_normalize_bare_name(self):
        assert normalize_predictor_spec("ubf") == {"name": "ubf"}

    def test_normalize_uniques_aliases(self):
        spec = normalize_predictor_spec(self.NESTED)
        aliases = [member["alias"] for member in spec["members"]]
        assert aliases == ["ubf", "trend", "trend-2"]

    def test_normalize_round_trips_byte_identically(self):
        import json

        spec = normalize_predictor_spec(self.NESTED)
        doc = json.dumps(spec, sort_keys=True)
        again = json.dumps(
            normalize_predictor_spec(json.loads(doc)), sort_keys=True
        )
        assert doc == again

    def test_unknown_member_name_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_predictor_spec(
                {"name": "noisy-or", "members": ["no-such-predictor"]}
            )

    def test_criticality_must_name_a_member(self):
        with pytest.raises(ConfigurationError):
            normalize_predictor_spec(
                {
                    "name": "noisy-or",
                    "members": ["ubf"],
                    "criticality": {"ghost": 0.5},
                }
            )

    def test_criticality_range_checked(self):
        with pytest.raises(ConfigurationError):
            normalize_predictor_spec(
                {
                    "name": "noisy-or",
                    "members": ["ubf"],
                    "criticality": {"ubf": 2.0},
                }
            )

    def test_empty_panel_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_predictor_spec({"name": "noisy-or", "members": []})

    @pytest.mark.parametrize(
        "extra",
        [{"frobnicate": 1}, {"calibration": "platt"}],
        ids=["frobnicate", "calibration"],
    )
    def test_unknown_spec_keys_rejected(self, extra):
        with pytest.raises(ConfigurationError, match="unknown noisy-or spec keys"):
            make_predictor({"name": "noisy-or", "members": ["ubf"], **extra})

    def test_make_predictor_from_nested_dict(self):
        predictor = make_predictor(self.NESTED, seed=3)
        assert predictor.info.name == "noisy-or"
        names = [member.name for member in predictor.members]
        assert names == ["ubf", "trend", "trend-2"]
        by_name = dict(zip(names, predictor.members))
        assert by_name["trend"].criticality == 0.5
        assert by_name["ubf"].criticality == 1.0
        assert predictor.leak == 0.02

    def test_nested_construction_is_deterministic(self, rng):
        x = rng.normal(size=(200, 3))
        y = rng.random(200)
        labels = y < 0.3
        from repro.prediction import TrainingData

        data = TrainingData(x=x, y=y, labels=labels)
        scores = []
        for _ in range(2):
            predictor = make_predictor(self.NESTED, seed=11).fit(data)
            scores.append(predictor.score_batch(data.batch()))
        np.testing.assert_array_equal(scores[0], scores[1])

    def test_spec_does_not_mutate_caller_dict(self):
        spec = {"name": "noisy-or", "members": ["ubf", "trend"]}
        make_predictor(spec, seed=1)
        assert spec == {"name": "noisy-or", "members": ["ubf", "trend"]}
