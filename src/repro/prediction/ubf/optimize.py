"""Projected L-BFGS: the bound-constrained minimizer of the UBF trainer.

The kernel widths, offsets and mixture weights of a
:class:`~repro.prediction.ubf.network.UBFNetwork` live in a box.  Each
iteration holds the variables that sit on a bound with the gradient
pushing outwards, takes an L-BFGS step on the others (the two-loop
recursion over their curvature pairs), projects the step back into the
box and halves it until the loss falls by the Armijo fraction of the
decrease the gradient predicts.  A step is accepted only if the loss does
not rise, so a warm start can only improve.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

#: Curvature pairs the two-loop recursion keeps.
_MEMORY = 10
#: Armijo fraction of the predicted decrease a step must achieve.
_ARMIJO = 1e-4
#: Halvings tried before the search gives up on a direction.
_BACKTRACKS = 30
#: Stop when the relative decrease falls below this (L-BFGS-B's default).
_FTOL = 2.2e-9
#: Stop when no free variable's gradient exceeds this.
_GTOL = 1e-5


def minimize_bounded(
    fun: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    max_iter: int,
) -> tuple[np.ndarray, float, int]:
    """Minimize ``fun`` over ``lower <= x <= upper``, starting from ``x0``.

    ``fun(x)`` returns the value and the gradient.  Runs at most
    ``max_iter`` iterations and returns ``(x, value, iterations)``.
    """
    x = np.clip(x0, lower, upper)
    value, grad = fun(x)
    pairs: list[tuple[np.ndarray, np.ndarray]] = []
    for iteration in range(max_iter):
        free = ~(((x <= lower) & (grad > 0)) | ((x >= upper) & (grad < 0)))
        if np.max(np.abs(grad[free]), initial=0.0) <= _GTOL:
            return x, value, iteration
        direction = _direction(np.where(free, grad, 0.0), free, pairs)
        step = 1.0
        for _ in range(_BACKTRACKS):
            trial = np.clip(x + step * direction, lower, upper)
            trial_value, trial_grad = fun(trial)
            predicted = min(grad @ (trial - x), 0.0)
            if trial_value <= value + _ARMIJO * predicted:
                break
            step *= 0.5
        else:
            return x, value, iteration
        pairs = [*pairs, (trial - x, trial_grad - grad)][-_MEMORY:]
        decrease = value - trial_value
        x, value, grad = trial, trial_value, trial_grad
        if decrease <= _FTOL * max(abs(value), 1.0):
            return x, value, iteration + 1
    return x, value, max_iter


def _direction(grad: np.ndarray, free: np.ndarray, pairs: list) -> np.ndarray:
    """``-H grad`` by the two-loop recursion, on the free variables only.

    Pairs restricted to the free variables that lost positive curvature
    are skipped, which keeps ``H`` positive definite: a descent direction.
    With no pair left it is steepest descent of unit length.
    """
    kept = []
    for s, y in pairs:
        s, y = s * free, y * free
        curvature = s @ y
        if curvature > 1e-10 * (y @ y):
            kept.append((s, y, 1.0 / curvature))
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(kept):
        alpha = rho * (s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if not kept:
        return -q / np.linalg.norm(q)
    s, y, rho = kept[-1]
    q *= 1.0 / (rho * (y @ y))
    for (s, y, rho), alpha in zip(kept, reversed(alphas), strict=True):
        q += (alpha - rho * (y @ q)) * s
    return -q
