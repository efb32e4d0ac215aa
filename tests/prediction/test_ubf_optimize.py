"""The UBF trainer's exact gradient and its projected L-BFGS."""

import numpy as np
import pytest
import scipy.optimize

import repro.prediction.ubf.network as network_module
from repro.prediction.ubf import UBFNetwork
from repro.prediction.ubf.kernels import kernel_gradients
from repro.prediction.ubf.optimize import minimize_bounded

K = 6


@pytest.fixture()
def training_data(rng):
    x = np.sort(rng.uniform(-3, 3, size=400))[:, None]
    peak = np.exp(-0.5 * ((x.ravel() - 1.0) / 0.3) ** 2)
    step = 1.0 / (1.0 + np.exp(5 * (x.ravel() + 1)))
    return x, peak + step + 0.02 * rng.standard_normal(400)


def captured_objective(monkeypatch, x, y, optimize_mixtures):
    """The objective a fit hands to the minimizer, and its bounds."""
    captured = {}

    def capture(fun, x0, lower, upper, max_iter):
        captured.update(fun=fun, x0=x0, lower=lower, upper=upper)
        return x0, 0.0, 0

    monkeypatch.setattr(network_module, "minimize_bounded", capture)
    UBFNetwork(
        n_kernels=K, optimize_mixtures=optimize_mixtures, rng=np.random.default_rng(0)
    ).fit(x, y)
    return captured


class TestGradient:
    @pytest.mark.parametrize("optimize_mixtures", [True, False])
    @pytest.mark.parametrize("point", ["start", "interior", "clipped", "at-bounds"])
    def test_matches_finite_differences(
        self, monkeypatch, training_data, optimize_mixtures, point
    ):
        captured = captured_objective(monkeypatch, *training_data, optimize_mixtures)
        fun, theta = captured["fun"], captured["x0"].copy()
        if point == "interior":
            noise = np.random.default_rng(5).normal(size=theta.size) * 0.3
            theta = np.clip(theta * np.exp(noise), captured["lower"], captured["upper"])
        elif point == "clipped":
            theta[K : 2 * K] = 1e-3  # sharp sigmoids: most arguments clip at +-50
        elif point == "at-bounds":
            # Lower bounds, so the forward differences stay in the box.
            theta[2 * K : 3 * K : 2] = 0.0  # sigmoid offsets
            if optimize_mixtures:
                theta[3 * K :: 2] = 0.0
        grad = fun(theta)[1]
        assert grad.shape == theta.shape
        assert np.linalg.norm(grad) > 1e-3
        error = scipy.optimize.check_grad(
            lambda t: fun(t)[0], lambda t: fun(t)[1], theta
        )
        assert error <= 1e-4 * np.linalg.norm(grad)

    def test_sigmoid_terms_vanish_where_the_argument_clips(self):
        radii = np.array([[0.0, 0.5, 3.0]])
        widths = np.full(3, 0.01)
        parts = kernel_gradients(radii, widths, widths, np.full(3, 0.6), np.full(3, 0.5))
        _, d_width, d_offset, _ = parts
        # (r - b) / w is -60, -10 and 240: only the middle one is unclipped.
        assert d_width[0, 0] == d_width[0, 2] == 0.0
        assert d_offset[0, 0] == d_offset[0, 2] == 0.0
        assert d_offset[0, 1] > 0.0


def quadratic(center, curvature):
    def fun(x):
        diff = x - center
        return float(np.sum(curvature * diff**2)), 2.0 * curvature * diff

    return fun


def rosenbrock(x):
    a, b = x
    value = (1.0 - a) ** 2 + 100.0 * (b - a**2) ** 2
    grad = np.array([-2.0 * (1.0 - a) - 400.0 * a * (b - a**2), 200.0 * (b - a**2)])
    return float(value), grad


class TestMinimizeBounded:
    LOWER = np.array([-2.0, -1.0, 0.0, 0.0])
    UPPER = np.array([2.0, 3.0, 1.0, 5.0])

    def test_finds_the_box_constrained_minimum(self):
        center = np.array([1.0, -4.0, 0.5, 9.0])  # two coordinates out of the box
        fun = quadratic(center, np.array([1.0, 10.0, 100.0, 0.5]))
        x, value, iterations = minimize_bounded(
            fun, np.array([0.0, 2.0, 0.0, 1.0]), self.LOWER, self.UPPER, 50
        )
        assert np.allclose(x, np.clip(center, self.LOWER, self.UPPER), atol=1e-6)
        assert value == fun(x)[0]
        assert iterations < 50

    def test_every_evaluation_stays_in_the_box(self):
        seen = []

        def fun(x):
            seen.append(x.copy())
            return rosenbrock(x[:2])[0] + float(x[2:] @ x[2:]), np.concatenate(
                [rosenbrock(x[:2])[1], 2.0 * x[2:]]
            )

        minimize_bounded(fun, np.array([5.0, -3.0, 2.0, 7.0]), self.LOWER, self.UPPER, 30)
        assert len(seen) > 1
        for x in seen:
            assert np.all(x >= self.LOWER) and np.all(x <= self.UPPER)

    def test_descent_is_monotone_and_stops_within_the_budget(self):
        lower, upper = np.array([-2.0, -1.0]), np.array([2.0, 3.0])
        start = np.array([-1.5, 2.5])
        values = []
        for budget in range(12):
            _, value, iterations = minimize_bounded(rosenbrock, start, lower, upper, budget)
            assert iterations <= budget
            values.append(value)
        assert values[0] == rosenbrock(start)[0]
        assert np.all(np.diff(values) <= 0.0)
        assert values[-1] < values[0]

    def test_no_budget_returns_the_start(self):
        start = np.array([0.5, 0.5])
        x, value, iterations = minimize_bounded(
            rosenbrock, start, np.zeros(2), np.ones(2), 0
        )
        assert x.tolist() == start.tolist() and iterations == 0
        assert value == rosenbrock(start)[0]


class TestTraining:
    def test_refine_only_lowers_the_training_error(self, training_data):
        x, y = training_data
        network = UBFNetwork(
            n_kernels=K,
            mixture_init=1.0,
            optimize_mixtures=False,
            max_opt_iter=8,
            rng=np.random.default_rng(2),
        ).fit(x, y)
        before = network.training_mse_
        network.refine(x, y, max_opt_iter=8, optimize_mixtures=True)
        assert network.training_mse_ <= before

    def test_fitted_parameters_respect_the_bounds(self, training_data):
        x, y = training_data
        network = UBFNetwork(n_kernels=K, max_opt_iter=30, rng=np.random.default_rng(3))
        network.fit(x, y)
        assert np.all((network.gaussian_widths >= 1e-3) & (network.gaussian_widths <= 50))
        assert np.all((network.sigmoid_widths >= 1e-3) & (network.sigmoid_widths <= 50))
        assert np.all((network.sigmoid_offsets >= 0) & (network.sigmoid_offsets <= 50))
        assert np.all((network.mixtures >= 0) & (network.mixtures <= 1))
