"""The UBF optimizer oracle: the original objective, which rebuilt its design.

:class:`ReferenceUBFNetwork` is a :class:`~repro.prediction.ubf.network.UBFNetwork`
whose training and prediction rebuild every array from the inputs, as the
original code did.  Every objective call builds the design from the
standardized inputs inside ``_solve_weights`` and again for the residual,
each time through the n x K x d difference tensor of
:func:`reference_kernel_matrix`, and its gradient rebuilds the distances
once more in :func:`reference_kernel_gradients`; the fit ends with one
more solve and a prediction on the training inputs.  The objective runs
under the library's :func:`~repro.prediction.ubf.optimize.minimize_bounded`,
and its gradient is a verbatim copy of the library's.
``test_ubf_equivalence.py`` requires the library to reproduce these
bodies bit for bit.
"""

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.prediction.ubf.kernels import _MIN_WIDTH
from repro.prediction.ubf.network import UBFNetwork
from repro.prediction.ubf.optimize import minimize_bounded


def reference_kernel_matrix(
    x: np.ndarray,
    centers: np.ndarray,
    gaussian_widths: np.ndarray,
    sigmoid_widths: np.ndarray,
    sigmoid_offsets: np.ndarray,
    mixtures: np.ndarray,
) -> np.ndarray:
    """The original design matrix ``K[n, i] = k_i(x_n)``, distances included."""
    x = np.atleast_2d(x)
    diff = x[:, None, :] - centers[None, :, :]
    r = np.sqrt(np.einsum("nik,nik->ni", diff, diff))
    gw = np.maximum(gaussian_widths, _MIN_WIDTH)[None, :]
    sw = np.maximum(sigmoid_widths, _MIN_WIDTH)[None, :]
    b = sigmoid_offsets[None, :]
    m = np.clip(mixtures, 0.0, 1.0)[None, :]
    gaussian = np.exp(-0.5 * (r / gw) ** 2)
    z = np.clip((r - b) / sw, -50.0, 50.0)
    sigmoid = 1.0 / (1.0 + np.exp(z))
    return m * gaussian + (1.0 - m) * sigmoid


def reference_kernel_gradients(
    x: np.ndarray,
    centers: np.ndarray,
    gaussian_widths: np.ndarray,
    sigmoid_widths: np.ndarray,
    sigmoid_offsets: np.ndarray,
    mixtures: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """``dK[n, i] / d theta_i`` per kernel parameter, distances included."""
    x = np.atleast_2d(x)
    diff = x[:, None, :] - centers[None, :, :]
    r = np.sqrt(np.einsum("nik,nik->ni", diff, diff))
    gw = np.maximum(gaussian_widths, _MIN_WIDTH)[None, :]
    sw = np.maximum(sigmoid_widths, _MIN_WIDTH)[None, :]
    b = sigmoid_offsets[None, :]
    m = np.clip(mixtures, 0.0, 1.0)[None, :]
    gaussian = np.exp(-0.5 * (r / gw) ** 2)
    z = np.clip((r - b) / sw, -50.0, 50.0)
    sigmoid = 1.0 / (1.0 + np.exp(z))
    slope = np.where(np.abs(z) < 50.0, (1.0 - m) * sigmoid * (1.0 - sigmoid), 0.0)
    return (
        m * gaussian * r**2 / gw**3,
        slope * (r - b) / sw**2,
        slope / sw,
        gaussian - sigmoid,
    )


class ReferenceUBFNetwork(UBFNetwork):
    """A UBF network that rebuilds the design from ``xs`` (the oracle)."""

    def fit(self, x: np.ndarray, y: np.ndarray) -> "ReferenceUBFNetwork":
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if x.shape[0] != y.size:
            raise ConfigurationError("x and y must have equal length")
        if x.shape[0] < self.n_kernels:
            raise ConfigurationError("need at least n_kernels training samples")

        self._x_mean = x.mean(axis=0)
        self._x_std = np.where(x.std(axis=0) > 1e-12, x.std(axis=0), 1.0)
        xs = self._standardize(x)

        self._init_kernels(xs)
        self._optimize_kernels(xs, y)
        self.weights = self._solve_weights(xs, y)
        residual = self._predict_standardized(xs) - y
        self.training_mse_ = float(np.mean(residual**2))
        self._fitted = True
        return self

    def _design(self, xs: np.ndarray) -> np.ndarray:
        k = reference_kernel_matrix(
            xs,
            self.centers,
            self.gaussian_widths,
            self.sigmoid_widths,
            self.sigmoid_offsets,
            self.mixtures,
        )
        return np.column_stack([np.ones(k.shape[0]), k])

    def _solve_weights(self, xs: np.ndarray, y: np.ndarray) -> np.ndarray:
        design = self._design(xs)
        gram = design.T @ design
        gram += self.ridge * np.eye(gram.shape[0])
        return np.linalg.solve(gram, design.T @ y)

    def _optimize_kernels(self, xs: np.ndarray, y: np.ndarray) -> None:
        if self.max_opt_iter <= 0:
            return
        k = self.n_kernels
        n_params = 4 if self.optimize_mixtures else 3

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            self._unpack_params(theta)
            weights = self._solve_weights(xs, y)
            design = self._design(xs)
            residual = weights[0] + (design[:, 1:] * weights[1:]).sum(axis=1) - y
            gram = design.T @ design
            gram += self.ridge * np.eye(gram.shape[0])
            v = np.linalg.solve(gram, design.T @ residual)
            sensitivity = residual - (v[0] + (design[:, 1:] * v[1:]).sum(axis=1))
            coef = weights[1:] * sensitivity[:, None] - v[1:] * residual[:, None]
            parts = reference_kernel_gradients(
                xs,
                self.centers,
                self.gaussian_widths,
                self.sigmoid_widths,
                self.sigmoid_offsets,
                self.mixtures,
            )[:n_params]
            grad = np.concatenate([(part * coef).sum(axis=0) for part in parts])
            return float(np.mean(residual**2)), grad * (2.0 / y.size)

        lower = np.repeat([1e-3, 1e-3, 0.0, 0.0][:n_params], k)
        upper = np.repeat([50.0, 50.0, 50.0, 1.0][:n_params], k)
        theta, _, _ = minimize_bounded(
            objective, self._pack_params(), lower, upper, self.max_opt_iter
        )
        self._unpack_params(theta)

    def refine(
        self,
        x: np.ndarray,
        y: np.ndarray,
        max_opt_iter: int | None = None,
        optimize_mixtures: bool | None = None,
    ) -> "ReferenceUBFNetwork":
        if not self._fitted:
            raise NotFittedError("refine() requires a fitted network")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if max_opt_iter is not None:
            self.max_opt_iter = max_opt_iter
        if optimize_mixtures is not None:
            self.optimize_mixtures = optimize_mixtures
        xs = self._standardize(x)
        self._optimize_kernels(xs, y)
        self.weights = self._solve_weights(xs, y)
        residual = self._predict_standardized(xs) - y
        self.training_mse_ = float(np.mean(residual**2))
        return self

    def predict(self, x: np.ndarray) -> np.ndarray:
        if not self._fitted:
            raise NotFittedError("UBFNetwork has not been fitted")
        return self._predict_standardized(self._standardize(x))

    def _predict_standardized(self, xs: np.ndarray) -> np.ndarray:
        kernels = self._design(xs)[:, 1:]
        return self.weights[0] + (kernels * self.weights[1:]).sum(axis=1)
