"""Radii-once UBF training against the original objective, bit for bit.

The library computes the distances to the kernel centers once per fit and
builds one design per objective call.
:class:`~tests.prediction.ubf_reference.ReferenceUBFNetwork` rebuilds both
from the inputs on every call.  Each float is computed by the same
operations in the same order, so every fitted parameter, the training MSE
and the scores must be equal, not close.
"""

import copy
import pickle

import numpy as np
import pytest

import repro.prediction.ubf.network as network_module
from repro.core.experiment import DEFAULT_VARIABLES
from repro.prediction import make_predictor
from repro.prediction.ubf import UBFNetwork
from repro.prediction.ubf.predictor import availability_to_nines
from tests.prediction.ubf_reference import ReferenceUBFNetwork

FITTED = (
    "centers",
    "gaussian_widths",
    "sigmoid_widths",
    "sigmoid_offsets",
    "mixtures",
    "weights",
)


def assert_same_fit(network, oracle):
    for name in FITTED:
        assert np.array_equal(getattr(network, name), getattr(oracle, name)), name
    assert network.training_mse_ == oracle.training_mse_


@pytest.fixture(scope="module")
def bundle(small_dataset):
    return small_dataset.training_data(variables=DEFAULT_VARIABLES)


@pytest.fixture(scope="module")
def samples(bundle):
    """All nine gauges and the nines target.

    Nine dimensions, not the wrapper's three or four: on this data a
    distance summed in another order shows only in the wider inputs.
    """
    return bundle.x, availability_to_nines(bundle.y)


def _rbf(network_class):
    return network_class(
        n_kernels=8,
        max_opt_iter=8,
        mixture_init=1.0,
        optimize_mixtures=False,
        rng=np.random.default_rng(3),
    )


@pytest.fixture(scope="module")
def rbfs(samples):
    """A plain RBF fitted by the library and by the oracle."""
    x, y = samples
    return _rbf(UBFNetwork).fit(x, y), _rbf(ReferenceUBFNetwork).fit(x, y)


class TestEquivalence:
    def test_reference_overrides_every_training_path(self):
        # Otherwise a comparison would pit the library against itself.
        overridden = ("fit", "refine", "predict", "_design", "_solve_weights",
                      "_optimize_kernels")
        for name in overridden:
            assert name in ReferenceUBFNetwork.__dict__, name

    def test_registry_ubf_predictor(self, bundle):
        predictor = make_predictor("ubf", rng=np.random.default_rng(5))
        oracle = make_predictor("ubf", rng=np.random.default_rng(5))
        # Swap the class in place so the network keeps drawing from the
        # generator it shares with the variable-selection wrapper.
        oracle.network.__class__ = ReferenceUBFNetwork
        predictor.fit(bundle)
        oracle.fit(bundle)
        assert predictor.selected_indices_ == oracle.selected_indices_
        assert_same_fit(predictor.network, oracle.network)
        batch = bundle.batch()
        assert np.array_equal(predictor.score_batch(batch), oracle.score_batch(batch))

    def test_plain_rbf(self, samples, rbfs):
        x, _ = samples
        network, oracle = rbfs
        assert np.all(network.mixtures == 1.0)
        assert_same_fit(network, oracle)
        assert np.array_equal(network.predict(x), oracle.predict(x))

    def test_mixture_refine_warm_started_from_the_rbf(self, samples, rbfs):
        """The A2 path: refine the RBF with the mixture weights free."""
        x, y = samples
        network, oracle = (copy.deepcopy(fitted) for fitted in rbfs)
        network.refine(x, y, max_opt_iter=8, optimize_mixtures=True)
        oracle.refine(x, y, max_opt_iter=8, optimize_mixtures=True)
        assert not np.all(network.mixtures == 1.0)
        assert_same_fit(network, oracle)


class TestPrediction:
    """Scores from the parameter arrays cached at fit equal the oracle's,
    for every row alone and for the batch."""

    @pytest.fixture(scope="class")
    def pairs(self, samples, rbfs):
        x, y = samples
        mixed = tuple(copy.deepcopy(fitted) for fitted in rbfs)
        for fitted in mixed:
            fitted.refine(x, y, max_opt_iter=8, optimize_mixtures=True)
        return [rbfs, mixed]

    def test_rows_alone_and_in_a_batch_match_the_oracle(self, samples, pairs):
        x, _ = samples
        rng = np.random.default_rng(11)
        near = x[rng.choice(len(x), size=30)]
        # Far rows saturate the sigmoid, where z is clipped at +-50.
        far = near + rng.normal(size=near.shape) * x.std(axis=0) * 50.0
        rows = np.vstack([near, far])
        for network, oracle in pairs:
            batch = network.predict(rows)
            assert batch.tobytes() == oracle.predict(rows).tobytes()
            for row in rows:
                one = network.predict(row[None, :])
                assert one.tobytes() == oracle.predict(row[None, :]).tobytes()

    def test_a_model_pickles_the_same_before_and_after_scoring(self, samples, rbfs):
        x, _ = samples
        network = copy.deepcopy(rbfs[0])
        before = pickle.dumps(network)
        scores = network.predict(x)
        assert pickle.dumps(network) == before
        assert pickle.loads(before).predict(x).tobytes() == scores.tobytes()


class TestEvaluationCounts:
    """Distances once per fit; one design per objective call."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts = {"radii": 0, "matrix": 0, "evaluate": 0, "objective": []}
        radii, matrix = network_module.kernel_radii, network_module.kernel_matrix
        evaluate = network_module.evaluate_kernels
        minimize = network_module.minimize_bounded

        def count_radii(*args):
            counts["radii"] += 1
            return radii(*args)

        def count_matrix(*args):
            counts["matrix"] += 1
            return matrix(*args)

        def count_evaluate(*args):
            counts["evaluate"] += 1
            return evaluate(*args)

        def spy_minimize(objective, *args, **kwargs):
            def counted(theta):
                before = counts["matrix"]
                value = objective(theta)
                counts["objective"].append(counts["matrix"] - before)
                return value

            return minimize(counted, *args, **kwargs)

        monkeypatch.setattr(network_module, "kernel_radii", count_radii)
        monkeypatch.setattr(network_module, "kernel_matrix", count_matrix)
        monkeypatch.setattr(network_module, "evaluate_kernels", count_evaluate)
        monkeypatch.setattr(network_module, "minimize_bounded", spy_minimize)
        return counts

    @pytest.mark.parametrize("step", ["fit", "refine"])
    def test_one_radii_per_fit_and_one_design_per_objective_call(
        self, calls, samples, step
    ):
        x, y = samples
        network = _rbf(UBFNetwork).fit(x, y)
        if step == "refine":
            calls.update(radii=0, matrix=0, objective=[])
            network.refine(x, y, optimize_mixtures=True)
        assert calls["radii"] == 1
        assert len(calls["objective"]) > 1
        assert set(calls["objective"]) == {1}
        # The final solve and the training MSE share one last design.
        assert calls["matrix"] == len(calls["objective"]) + 1

    def test_predict_evaluates_once(self, calls, samples):
        """Distances and kernels once, on the parameter arrays of the fit."""
        x, y = samples
        network = _rbf(UBFNetwork).fit(x, y)
        calls.update(radii=0, matrix=0, evaluate=0, objective=[])
        network.predict(x)
        assert (calls["radii"], calls["evaluate"], calls["matrix"]) == (1, 1, 0)
