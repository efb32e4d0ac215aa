import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.errors import ConfigurationError, NotFittedError
from repro.prediction.ubf import UBFNetwork
from repro.prediction.ubf.kernels import kernel_radii


def bumpy_target(x):
    """A peaked + stepped 1-D function (what UBF mixtures model well)."""
    return np.exp(-0.5 * ((x - 1.0) / 0.3) ** 2) + 1.0 / (1.0 + np.exp(5 * (x + 1)))


@pytest.fixture()
def training_data(rng):
    x = np.sort(rng.uniform(-3, 3, size=400))[:, None]
    y = bumpy_target(x.ravel()) + 0.02 * rng.standard_normal(400)
    return x, y


class TestFitting:
    def test_fits_bumpy_function(self, training_data, rng):
        x, y = training_data
        net = UBFNetwork(n_kernels=8, rng=rng)
        net.fit(x, y)
        grid = np.linspace(-3, 3, 100)[:, None]
        prediction = net.predict(grid)
        truth = bumpy_target(grid.ravel())
        rmse = np.sqrt(np.mean((prediction - truth) ** 2))
        assert rmse < 0.1

    def test_training_mse_recorded(self, training_data, rng):
        x, y = training_data
        net = UBFNetwork(n_kernels=8, rng=rng)
        net.fit(x, y)
        assert net.training_mse_ is not None
        assert net.training_mse_ < 0.05

    def test_optimization_improves_over_no_optimization(self, training_data, rng):
        x, y = training_data
        raw = UBFNetwork(n_kernels=6, max_opt_iter=0, rng=np.random.default_rng(0))
        raw.fit(x, y)
        tuned = UBFNetwork(n_kernels=6, max_opt_iter=40, rng=np.random.default_rng(0))
        tuned.fit(x, y)
        assert tuned.training_mse_ <= raw.training_mse_ + 1e-12

    def test_multivariate_input(self, rng):
        x = rng.standard_normal((300, 4))
        y = x[:, 0] ** 2 - x[:, 2]
        net = UBFNetwork(n_kernels=10, rng=rng)
        net.fit(x, y)
        residual = net.predict(x) - y
        assert np.mean(residual**2) < np.var(y)

    def test_constant_feature_handled(self, rng):
        x = np.column_stack([rng.standard_normal(100), np.full(100, 7.0)])
        y = x[:, 0]
        net = UBFNetwork(n_kernels=4, rng=rng)
        net.fit(x, y)  # must not divide by zero on std
        assert np.isfinite(net.predict(x)).all()


class TestValidation:
    def test_rejects_mismatched_lengths(self, rng):
        net = UBFNetwork(n_kernels=2, rng=rng)
        with pytest.raises(ConfigurationError):
            net.fit(np.zeros((5, 2)), np.zeros(4))

    def test_rejects_too_few_samples(self, rng):
        net = UBFNetwork(n_kernels=10, rng=rng)
        with pytest.raises(ConfigurationError):
            net.fit(np.zeros((5, 2)), np.zeros(5))

    def test_predict_before_fit(self, rng):
        with pytest.raises(NotFittedError):
            UBFNetwork(rng=rng).predict(np.zeros((1, 2)))

    def test_bad_constructor_args(self):
        with pytest.raises(ConfigurationError):
            UBFNetwork(n_kernels=0)
        with pytest.raises(ConfigurationError):
            UBFNetwork(ridge=-1.0)
        with pytest.raises(ConfigurationError):
            UBFNetwork(mixture_init=2.0)


class TestKernelsAccess:
    def test_kernels_after_fit(self, training_data, rng):
        x, y = training_data
        net = UBFNetwork(n_kernels=5, rng=rng)
        net.fit(x, y)
        kernels = net.kernels()
        assert len(kernels) == 5
        # Individual kernels reproduce the internal design matrix.
        probe = np.array([[0.5]])
        probe_std = (probe - net._x_mean) / net._x_std
        for i, kernel in enumerate(kernels):
            assert kernel(probe_std)[0] == pytest.approx(
                net._design(kernel_radii(probe_std, net.centers))[0, i + 1], abs=1e-10
            )

    def test_kernels_before_fit(self, rng):
        with pytest.raises(NotFittedError):
            UBFNetwork(rng=rng).kernels()


class TestRBFDegeneration:
    def test_pure_gaussian_mode(self, training_data, rng):
        """mixture_init=1 + no mixture optimization = classic RBF network."""
        x, y = training_data
        net = UBFNetwork(
            n_kernels=8, mixture_init=1.0, optimize_mixtures=False, rng=rng
        )
        net.fit(x, y)
        assert np.all(net.mixtures == 1.0)
        assert net.training_mse_ < 0.05


@pytest.fixture(scope="module")
def fitted_3d():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(300, 3))
    y = np.sin(x[:, 0]) + x[:, 1] * x[:, 2]
    return UBFNetwork(n_kernels=8, max_opt_iter=10, rng=np.random.default_rng(9)).fit(
        x, y
    )


class TestBatchIndependence:
    """The MEA cycle scores one row at a time, and the threshold is
    calibrated on the training batch: both must see the same numbers."""

    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(2, 40), st.just(3)),
            elements=st.floats(-5.0, 5.0),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_a_row_scores_the_same_alone_and_in_a_batch(self, fitted_3d, rows):
        batch = fitted_3d.predict(rows)
        for i, row in enumerate(rows):
            alone = fitted_3d.predict(row[None, :])
            assert alone.tobytes() == batch[i : i + 1].tobytes(), i
