"""The UBF function-approximation network.

A linear combination of Eq. 1 mixture kernels plus a bias:

.. math::

    \\hat y(x) = \\beta_0 + \\sum_i \\beta_i k_i(x)

Training:

1. standardize inputs,
2. place kernel centers by k-means over the training inputs,
3. refine the kernel parameters (widths, sigmoid offsets, mixtures) on
   the squared error of the ridge-solved output weights ("by including
   m_i in the optimization, UBF can better adapt to specifics of the
   data"), by the projected L-BFGS of :mod:`~repro.prediction.ubf.optimize`
   with the exact gradient, then solve the output weights once more.

Setting ``optimize_mixtures=False`` and ``mixture_init=1.0`` degenerates
the network to a classic Gaussian RBF network -- the ablation baseline.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, NotFittedError
from repro.prediction.kmeans import kmeans2
from repro.prediction.ubf.kernels import (
    UBFKernel,
    evaluate_kernels,
    kernel_gradients,
    kernel_matrix,
    kernel_parameters,
    kernel_radii,
)
from repro.prediction.ubf.optimize import minimize_bounded
from repro.rng import ensure_rng


class UBFNetwork:
    """Mixture-kernel regression network.

    Parameters
    ----------
    n_kernels:
        Number of basis functions.
    ridge:
        L2 regularization of the output weights.
    mixture_init:
        Initial Gaussian/sigmoid mixture weight for every kernel.
    optimize_mixtures:
        Whether mixture weights take part in the nonlinear optimization
        (``False`` + ``mixture_init=1.0`` = plain RBF).
    max_opt_iter:
        Iteration budget of the kernel-parameter refinement.
    rng:
        Used for k-means initialization.
    """

    def __init__(
        self,
        n_kernels: int = 12,
        ridge: float = 1e-3,
        mixture_init: float = 0.5,
        optimize_mixtures: bool = True,
        max_opt_iter: int = 40,
        rng: np.random.Generator | None = None,
    ) -> None:
        if n_kernels < 1:
            raise ConfigurationError("n_kernels must be >= 1")
        if ridge < 0:
            raise ConfigurationError("ridge must be non-negative")
        if not 0.0 <= mixture_init <= 1.0:
            raise ConfigurationError("mixture_init must be in [0, 1]")
        self.n_kernels = n_kernels
        self.ridge = ridge
        self.mixture_init = mixture_init
        self.optimize_mixtures = optimize_mixtures
        self.max_opt_iter = max_opt_iter
        self.rng = ensure_rng(rng, default_seed=0)

        self._fitted = False
        self._x_mean: np.ndarray | None = None
        self._x_std: np.ndarray | None = None
        self.centers: np.ndarray | None = None
        self.gaussian_widths: np.ndarray | None = None
        self.sigmoid_widths: np.ndarray | None = None
        self.sigmoid_offsets: np.ndarray | None = None
        self.mixtures: np.ndarray | None = None
        self.weights: np.ndarray | None = None  # [beta_0, beta_1..beta_K]
        self.training_mse_: float | None = None
        #: kernel_parameters() of the fitted kernels; derived, not pickled.
        self._kernel_parameters: tuple | None = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray) -> "UBFNetwork":
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
        self._train(xs, y)
        self._fitted = True
        return self

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        return (np.atleast_2d(x) - self._x_mean) / self._x_std

    def _init_kernels(self, xs: np.ndarray) -> None:
        seed = int(self.rng.integers(0, 2**31 - 1))
        centers, _ = kmeans2(xs, self.n_kernels, seed)
        self.centers = centers
        if self.n_kernels > 1:
            diffs = centers[:, None, :] - centers[None, :, :]
            dists = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs))
            np.fill_diagonal(dists, np.inf)
            nearest = dists.min(axis=1)
            nearest[~np.isfinite(nearest)] = 1.0
        else:
            nearest = np.ones(1)
        base = np.maximum(nearest, 0.1)
        self.gaussian_widths = base.copy()
        self.sigmoid_widths = 0.5 * base
        self.sigmoid_offsets = base.copy()
        self.mixtures = np.full(self.n_kernels, self.mixture_init)

    def _design(self, radii: np.ndarray) -> np.ndarray:
        k = kernel_matrix(
            radii,
            self.gaussian_widths,
            self.sigmoid_widths,
            self.sigmoid_offsets,
            self.mixtures,
        )
        return np.column_stack([np.ones(k.shape[0]), k])

    def _fitted_kernel_parameters(self) -> tuple:
        return kernel_parameters(
            self.gaussian_widths,
            self.sigmoid_widths,
            self.sigmoid_offsets,
            self.mixtures,
        )

    def _gram(self, design: np.ndarray) -> np.ndarray:
        gram = design.T @ design
        gram += self.ridge * np.eye(gram.shape[0])
        return gram

    def _solve_weights(self, design: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self._gram(design), design.T @ y)

    def _pack_params(self) -> np.ndarray:
        parts = [self.gaussian_widths, self.sigmoid_widths, self.sigmoid_offsets]
        if self.optimize_mixtures:
            parts.append(self.mixtures)
        return np.concatenate(parts)

    def _unpack_params(self, theta: np.ndarray) -> None:
        k = self.n_kernels
        self.gaussian_widths = theta[0:k]
        self.sigmoid_widths = theta[k : 2 * k]
        self.sigmoid_offsets = theta[2 * k : 3 * k]
        if self.optimize_mixtures:
            self.mixtures = theta[3 * k : 4 * k]

    def _train(self, xs: np.ndarray, y: np.ndarray) -> None:
        """Refine the kernel parameters, then solve the output weights.

        The centers are not refined, so the distances to them are computed
        once here and every design of the fit is evaluated on them.
        """
        radii = kernel_radii(xs, self.centers)
        self._optimize_kernels(radii, y)
        design = self._design(radii)
        self.weights = self._solve_weights(design, y)
        residual = _scores(design[:, 1:], self.weights) - y
        self.training_mse_ = float(np.mean(residual**2))
        self._kernel_parameters = self._fitted_kernel_parameters()

    def _optimize_kernels(self, radii: np.ndarray, y: np.ndarray) -> None:
        if self.max_opt_iter <= 0:
            return
        k = self.n_kernels
        n_params = 4 if self.optimize_mixtures else 3

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            """The training MSE and its exact gradient.

            Variable projection: the weights are the ridge solution, so
            with ``A`` the regularized Gram matrix, ``w = A^-1 D^T y``,
            ``r = D w - y``, ``v = A^-1 D^T r`` and ``s = r - D v``, a
            parameter of kernel ``i`` moves the MSE by
            ``(2/n) sum_n dK[n, i] (w_i s_n - v_i r_n)``.
            """
            self._unpack_params(theta)
            design = self._design(radii)
            gram = self._gram(design)
            weights = np.linalg.solve(gram, design.T @ y)
            residual = _scores(design[:, 1:], weights) - y
            v = np.linalg.solve(gram, design.T @ residual)
            sensitivity = residual - _scores(design[:, 1:], v)
            coef = weights[1:] * sensitivity[:, None] - v[1:] * residual[:, None]
            parts = kernel_gradients(
                radii,
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
    ) -> "UBFNetwork":
        """Continue kernel-parameter optimization from the current fit.

        Useful for warm starts -- e.g. fit a pure-Gaussian RBF first, then
        enable mixture optimization and refine: the projected L-BFGS takes
        no step that raises the training error, so the refined error can
        only improve.
        """
        if not self._fitted:
            raise NotFittedError("refine() requires a fitted network")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if max_opt_iter is not None:
            self.max_opt_iter = max_opt_iter
        if optimize_mixtures is not None:
            self.optimize_mixtures = optimize_mixtures
        self._train(self._standardize(x), y)
        return self

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predicted target values for rows of ``x``."""
        if not self._fitted:
            raise NotFittedError("UBFNetwork has not been fitted")
        radii = kernel_radii(self._standardize(x), self.centers)
        k = evaluate_kernels(radii, self._kernel_parameters)
        return _scores(k, self.weights)

    def kernels(self) -> list[UBFKernel]:
        """The fitted kernels as individual objects (for inspection)."""
        if self.centers is None:
            raise NotFittedError("UBFNetwork has not been fitted")
        return [
            UBFKernel(
                self.centers[i],
                self.gaussian_widths[i],
                self.sigmoid_widths[i],
                self.sigmoid_offsets[i],
                float(np.clip(self.mixtures[i], 0.0, 1.0)),
            )
            for i in range(self.n_kernels)
        ]

    def __repr__(self) -> str:
        status = "fitted" if self._fitted else "unfitted"
        return f"UBFNetwork(n_kernels={self.n_kernels}, {status})"

    def __getstate__(self) -> dict:
        # The derived arrays are rebuilt on load: a pickle holds only the
        # model, and models pickled before they existed still load.
        state = self.__dict__.copy()
        state.pop("_kernel_parameters", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._kernel_parameters = (
            self._fitted_kernel_parameters() if self._fitted else None
        )


def _scores(kernels: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """``beta_0 + sum_i beta_i K[n, i]``, the kernel terms summed row by row.

    A matrix product picks its summation order by the number of rows, so a
    row scored alone would differ in the last bit from the same row in a
    batch; a per-row sum does not.  Adding the bias weight after the sum
    spares ``predict`` the design's column of ones.
    """
    return weights[0] + (kernels * weights[1:]).sum(axis=1)
