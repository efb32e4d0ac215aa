import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.prediction.ubf import GaussianKernel, SigmoidKernel, UBFKernel
from repro.prediction.ubf.kernels import kernel_matrix, kernel_radii


CENTER = np.array([1.0, -1.0])


class TestGaussianKernel:
    def test_peak_at_center(self):
        kernel = GaussianKernel(CENTER, width=1.0)
        assert kernel(CENTER[None, :])[0] == pytest.approx(1.0)

    def test_decay_with_distance(self):
        kernel = GaussianKernel(CENTER, width=1.0)
        near = kernel(np.array([[1.1, -1.0]]))[0]
        far = kernel(np.array([[3.0, -1.0]]))[0]
        assert near > far

    def test_known_value(self):
        kernel = GaussianKernel(np.zeros(1), width=1.0)
        assert kernel(np.array([[1.0]]))[0] == pytest.approx(np.exp(-0.5))

    def test_width_floor(self):
        kernel = GaussianKernel(CENTER, width=0.0)
        assert np.isfinite(kernel(CENTER[None, :])[0])


class TestSigmoidKernel:
    def test_stepping_shape(self):
        kernel = SigmoidKernel(np.zeros(1), width=0.1, offset=2.0)
        inside = kernel(np.array([[0.5]]))[0]
        outside = kernel(np.array([[4.0]]))[0]
        assert inside > 0.95
        assert outside < 0.05

    def test_half_at_offset(self):
        kernel = SigmoidKernel(np.zeros(1), width=0.5, offset=2.0)
        assert kernel(np.array([[2.0]]))[0] == pytest.approx(0.5)

    def test_no_overflow_far_away(self):
        kernel = SigmoidKernel(np.zeros(1), width=1e-3, offset=1.0)
        assert np.isfinite(kernel(np.array([[1e6]]))[0])


class TestUBFKernel:
    def test_mixture_interpolates(self):
        """Eq. 1: k = m*gaussian + (1-m)*sigmoid."""
        x = np.array([[0.7]])
        pure_gauss = UBFKernel(np.zeros(1), 1.0, 0.5, 1.0, mixture=1.0)
        pure_sig = UBFKernel(np.zeros(1), 1.0, 0.5, 1.0, mixture=0.0)
        half = UBFKernel(np.zeros(1), 1.0, 0.5, 1.0, mixture=0.5)
        expected = 0.5 * pure_gauss(x)[0] + 0.5 * pure_sig(x)[0]
        assert half(x)[0] == pytest.approx(expected)

    def test_rejects_bad_mixture(self):
        with pytest.raises(ConfigurationError):
            UBFKernel(np.zeros(1), 1.0, 1.0, 1.0, mixture=1.5)

    def test_values_in_unit_interval(self, rng):
        kernel = UBFKernel(np.zeros(3), 0.7, 0.3, 1.2, mixture=0.4)
        values = kernel(rng.standard_normal((100, 3)))
        assert np.all((0 <= values) & (values <= 1))


class TestKernelMatrix:
    def test_matches_individual_kernels(self, rng):
        centers = rng.standard_normal((4, 3))
        gw = rng.random(4) + 0.5
        sw = rng.random(4) + 0.2
        offsets = rng.random(4) + 0.5
        mixtures = rng.random(4)
        x = rng.standard_normal((10, 3))
        matrix = kernel_matrix(kernel_radii(x, centers), gw, sw, offsets, mixtures)
        for i in range(4):
            kernel = UBFKernel(centers[i], gw[i], sw[i], offsets[i], mixtures[i])
            np.testing.assert_allclose(matrix[:, i], kernel(x), atol=1e-12)

    def test_shape(self, rng):
        radii = kernel_radii(rng.standard_normal((7, 2)), rng.standard_normal((3, 2)))
        ones = np.ones(3)
        matrix = kernel_matrix(radii, ones, ones, ones, np.full(3, 0.5))
        assert radii.shape == matrix.shape == (7, 3)
