"""Kernels for the UBF network.

The paper's Eq. 1 defines a UBF kernel as a mixture of two base kernels:

.. math::

    k_i(x) = m_i \\, \\gamma(x, \\lambda^\\gamma_i)
             + (1 - m_i) \\, \\delta(x, \\lambda^\\delta_i)

"For example, if a Gaussian and a sigmoid kernel are mixed, either
'peaked', 'stepping' or mixed behavior can be modeled in various regions
of the input space."  We implement exactly that pair: a radial Gaussian
and a radial sigmoid, mixed by a per-kernel weight ``m_i``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

_MIN_WIDTH = 1e-6


class GaussianKernel:
    """Radial Gaussian: ``exp(-r^2 / (2 w^2))`` -- "peaked" behaviour."""

    def __init__(self, center: np.ndarray, width: float) -> None:
        self.center = np.asarray(center, dtype=float)
        self.width = max(float(width), _MIN_WIDTH)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        r = kernel_radii(x, self.center[None, :])[:, 0]
        return np.exp(-0.5 * (r / self.width) ** 2)


class SigmoidKernel:
    """Radial sigmoid: ``1 / (1 + exp((r - b) / w))`` -- "stepping" behaviour.

    Close to 1 inside radius ``b`` of the center and falls to 0 outside,
    with transition sharpness ``w``.
    """

    def __init__(self, center: np.ndarray, width: float, offset: float) -> None:
        self.center = np.asarray(center, dtype=float)
        self.width = max(float(width), _MIN_WIDTH)
        self.offset = float(offset)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        r = kernel_radii(x, self.center[None, :])[:, 0]
        z = np.clip((r - self.offset) / self.width, -50.0, 50.0)
        return 1.0 / (1.0 + np.exp(z))


class UBFKernel:
    """The Eq. 1 mixture of a Gaussian and a sigmoid kernel."""

    def __init__(
        self,
        center: np.ndarray,
        gaussian_width: float,
        sigmoid_width: float,
        sigmoid_offset: float,
        mixture: float,
    ) -> None:
        if not 0.0 <= mixture <= 1.0:
            raise ConfigurationError("mixture weight must be in [0, 1]")
        self.center = np.asarray(center, dtype=float)
        self.gaussian = GaussianKernel(center, gaussian_width)
        self.sigmoid = SigmoidKernel(center, sigmoid_width, sigmoid_offset)
        self.mixture = float(mixture)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.mixture * self.gaussian(x) + (1.0 - self.mixture) * self.sigmoid(x)

    def __repr__(self) -> str:
        return (
            f"UBFKernel(m={self.mixture:.2f}, gw={self.gaussian.width:.3f}, "
            f"sw={self.sigmoid.width:.3f}, b={self.sigmoid.offset:.3f})"
        )


def kernel_radii(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Distances ``R[n, i] = |x_n - c_i|`` that :func:`kernel_matrix` evaluates.

    They depend on the centers only, so a trainer that refines widths,
    offsets and mixtures computes them once and keeps the n x K x d
    difference tensor out of its inner loop.
    """
    x = np.atleast_2d(x)
    diff = x[:, None, :] - centers[None, :, :]
    return np.sqrt(np.einsum("nik,nik->ni", diff, diff))


def kernel_parameters(
    gaussian_widths: np.ndarray,
    sigmoid_widths: np.ndarray,
    sigmoid_offsets: np.ndarray,
    mixtures: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """The parameter-only arrays :func:`evaluate_kernels` needs.

    Row vectors of the clamped Gaussian and sigmoid widths, the sigmoid
    offsets, the clipped mixture weights ``m`` and ``1 - m``.  They depend
    on the kernel parameters alone, so a fitted network computes them once.
    """
    m = np.clip(mixtures, 0.0, 1.0)[None, :]
    return (
        np.maximum(gaussian_widths, _MIN_WIDTH)[None, :],
        np.maximum(sigmoid_widths, _MIN_WIDTH)[None, :],
        sigmoid_offsets[None, :],
        m,
        1.0 - m,
    )


def evaluate_kernels(radii: np.ndarray, parameters: tuple) -> np.ndarray:
    """``K[n, i] = k_i(x_n)`` from :func:`kernel_radii` and :func:`kernel_parameters`.

    The row-wise functional form matches :class:`UBFKernel`.
    """
    gw, sw, b, m, one_minus_m = parameters
    gaussian, _, sigmoid = _base_kernels(radii, gw, sw, b)
    return m * gaussian + one_minus_m * sigmoid


def _base_kernels(
    radii: np.ndarray, gw: np.ndarray, sw: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gaussian, the clipped sigmoid argument ``z`` and the sigmoid."""
    gaussian = np.exp(-0.5 * (radii / gw) ** 2)
    z = np.clip((radii - b) / sw, -50.0, 50.0)
    return gaussian, z, 1.0 / (1.0 + np.exp(z))


def kernel_gradients(
    radii: np.ndarray,
    gaussian_widths: np.ndarray,
    sigmoid_widths: np.ndarray,
    sigmoid_offsets: np.ndarray,
    mixtures: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """``dK[n, i] / d theta_i`` for the parameters of :func:`kernel_matrix`.

    One array per parameter, in its argument order: Gaussian width,
    sigmoid width, sigmoid offset, mixture weight.  Each is elementwise on
    the radii.  The sigmoid's two are zero where its argument is clipped
    at +-50; the width floor and the mixture clip are taken as inactive,
    as they are inside the trainer's bounds.
    """
    gw, sw, b, m, one_minus_m = kernel_parameters(
        gaussian_widths, sigmoid_widths, sigmoid_offsets, mixtures
    )
    gaussian, z, sigmoid = _base_kernels(radii, gw, sw, b)
    slope = np.where(np.abs(z) < 50.0, one_minus_m * sigmoid * (1.0 - sigmoid), 0.0)
    return (
        m * gaussian * radii**2 / gw**3,
        slope * (radii - b) / sw**2,
        slope / sw,
        gaussian - sigmoid,
    )


def kernel_matrix(
    radii: np.ndarray,
    gaussian_widths: np.ndarray,
    sigmoid_widths: np.ndarray,
    sigmoid_offsets: np.ndarray,
    mixtures: np.ndarray,
) -> np.ndarray:
    """Vectorized design matrix ``K[n, i] = k_i(x_n)`` from :func:`kernel_radii`.

    What the trainer's inner loop evaluates, with parameters that change
    on every call.
    """
    parameters = kernel_parameters(
        gaussian_widths, sigmoid_widths, sigmoid_offsets, mixtures
    )
    return evaluate_kernels(radii, parameters)
