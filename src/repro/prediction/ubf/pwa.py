"""Variable selection: the Probabilistic Wrapper Approach (PWA).

"PWA is a variable selection algorithm that combines forward selection and
backward elimination in a probabilistic framework.  It has proven to be
very effective, outperforming by far both methods as well as a selection
by (human) domain experts."

The implementation keeps a per-variable inclusion probability.  Each round
it samples candidate subsets, evaluates them with a (pluggable, cheap)
fitness function, and shifts the inclusion probabilities toward variables
that appear in above-average subsets.  Proposals are biased both toward
adding promising variables (forward moves) and dropping doubtful ones
(backward moves), which is the forward/backward combination the paper
describes.

Plain :func:`forward_selection` and :func:`backward_elimination` are
provided as the ablation baselines (bench A1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.rng import ensure_rng

#: A fitness function maps (X restricted to a subset, y) to a score
#: (higher is better).
Fitness = Callable[[np.ndarray, np.ndarray], float]


@dataclass(frozen=True)
class RidgeCVFitness:
    """Cheap default fitness: k-fold cross-validated ridge-regression R^2.

    Deterministic (contiguous folds) so selection results are
    reproducible.  A frozen dataclass rather than a closure so trained
    predictors that keep a reference to their fitness stay picklable
    (process-pool workers and the fleet artifact store both ship trained
    models across process boundaries).
    """

    folds: int = 3
    ridge: float = 1e-2

    def __post_init__(self) -> None:
        if self.folds < 2:
            raise ConfigurationError("need at least 2 folds")

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        folds, ridge = self.folds, self.ridge
        x = np.atleast_2d(x)
        y = np.asarray(y, dtype=float).ravel()
        n = y.size
        if x.shape[1] == 0 or n < 2 * folds:
            return -np.inf
        indices = np.arange(n)
        bounds = np.linspace(0, n, folds + 1, dtype=int)
        sse, sst = 0.0, 0.0
        for f in range(folds):
            test = indices[bounds[f] : bounds[f + 1]]
            train = np.concatenate([indices[: bounds[f]], indices[bounds[f + 1] :]])
            x_train, y_train = x[train], y[train]
            x_test, y_test = x[test], y[test]
            mean = x_train.mean(axis=0)
            std = x_train.std(axis=0)
            std = np.where(std > 1e-12, std, 1.0)
            a = np.column_stack(
                [np.ones(train.size), (x_train - mean) / std]
            )
            gram = a.T @ a + ridge * np.eye(a.shape[1])
            beta = np.linalg.solve(gram, a.T @ y_train)
            a_test = np.column_stack([np.ones(test.size), (x_test - mean) / std])
            pred = a_test @ beta
            sse += float(np.sum((pred - y_test) ** 2))
            sst += float(np.sum((y_test - y_train.mean()) ** 2))
        if sst <= 0:
            return -np.inf
        return 1.0 - sse / sst


def ridge_cv_fitness(folds: int = 3, ridge: float = 1e-2) -> Fitness:
    """The default :class:`RidgeCVFitness`, as a plain callable."""
    return RidgeCVFitness(folds=folds, ridge=ridge)


def _median(values: np.ndarray) -> np.float64:
    """``np.median`` of a non-empty 1-D float array, bit for bit.

    The middle value, or the mean of the two middle values, summed from
    ``0.0`` the way ``np.mean`` sums (so ``-0.0`` reads ``0.0``); unlike
    ``np.median`` it does not import ``numpy.ma``.
    """
    ordered = np.sort(values)
    middle = ordered.size // 2
    if ordered.size % 2:
        return 0.0 + ordered[middle]
    return (0.0 + ordered[middle - 1] + ordered[middle]) / 2.0


@dataclass
class SelectionResult:
    """Outcome of a variable-selection run."""

    selected: list[int]
    probabilities: np.ndarray | None
    best_fitness: float
    evaluations: int

    def names(self, variables: Sequence[str]) -> list[str]:
        return [variables[i] for i in self.selected]


class ProbabilisticWrapper:
    """The PWA selector.

    Parameters
    ----------
    fitness:
        Subset evaluation function; defaults to :func:`ridge_cv_fitness`.
    n_rounds:
        Sampling rounds.
    samples_per_round:
        Candidate subsets evaluated per round.
    learning_rate:
        How strongly inclusion probabilities move per round.
    rng:
        Random generator.
    """

    def __init__(
        self,
        fitness: Fitness | None = None,
        n_rounds: int = 12,
        samples_per_round: int = 12,
        learning_rate: float = 0.35,
        rng: np.random.Generator | None = None,
    ) -> None:
        if n_rounds < 1 or samples_per_round < 2:
            raise ConfigurationError("need n_rounds >= 1 and samples_per_round >= 2")
        if not 0 < learning_rate <= 1:
            raise ConfigurationError("learning_rate must be in (0, 1]")
        self.fitness = fitness or ridge_cv_fitness()
        self.n_rounds = n_rounds
        self.samples_per_round = samples_per_round
        self.learning_rate = learning_rate
        self.rng = ensure_rng(rng, default_seed=0)

    def select(self, x: np.ndarray, y: np.ndarray) -> SelectionResult:
        """Sample and score candidate subsets; keep the best one seen.

        A candidate mask drawn again in the same call reuses its fitness
        (the fitness is a function of the subset), and ``evaluations``
        counts candidates, scored or reused.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        n_vars = x.shape[1]
        if n_vars == 0:
            raise ConfigurationError("no variables to select from")
        probs = np.full(n_vars, 0.5)
        best_subset = list(range(n_vars))
        best_fit = self.fitness(x, y)
        evaluations = 1
        scored: dict[bytes, float] = {}
        for _ in range(self.n_rounds):
            subsets: list[np.ndarray] = []
            fits: list[float] = []
            for _ in range(self.samples_per_round):
                mask = self.rng.random(n_vars) < probs
                # Forward move: force one promising excluded variable in.
                excluded = np.nonzero(~mask)[0]
                if excluded.size and self.rng.random() < 0.5:
                    pick = excluded[np.argmax(probs[excluded])]
                    mask[pick] = True
                # Backward move: force one doubtful included variable out.
                included = np.nonzero(mask)[0]
                if included.size > 1 and self.rng.random() < 0.5:
                    drop = included[np.argmin(probs[included])]
                    mask[drop] = False
                if not mask.any():
                    mask[self.rng.integers(n_vars)] = True
                subset = np.nonzero(mask)[0]
                key = mask.tobytes()
                fit = scored.get(key)
                if fit is None:
                    fit = scored[key] = self.fitness(x[:, subset], y)
                evaluations += 1
                subsets.append(mask)
                fits.append(fit)
                if fit > best_fit:
                    best_fit = fit
                    best_subset = subset.tolist()
            # Probability update: average membership of above-median subsets.
            fits_arr = np.asarray(fits)
            finite = np.isfinite(fits_arr)
            if finite.sum() < 2:
                continue
            median = _median(fits_arr[finite])
            good = [
                m
                for m, f in zip(subsets, fits, strict=True)
                if np.isfinite(f) and f >= median
            ]
            if not good:
                continue
            target = np.mean(np.vstack(good), axis=0)
            probs = (1 - self.learning_rate) * probs + self.learning_rate * target
            probs = np.clip(probs, 0.05, 0.95)
        return SelectionResult(
            selected=sorted(best_subset),
            probabilities=probs,
            best_fitness=best_fit,
            evaluations=evaluations,
        )


def forward_selection(
    x: np.ndarray,
    y: np.ndarray,
    fitness: Fitness | None = None,
    max_vars: int | None = None,
) -> SelectionResult:
    """Greedy forward selection (ablation baseline)."""
    fitness = fitness or ridge_cv_fitness()
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_vars = x.shape[1]
    max_vars = n_vars if max_vars is None else min(max_vars, n_vars)
    selected: list[int] = []
    best_fit = -np.inf
    evaluations = 0
    improved = True
    while improved and len(selected) < max_vars:
        improved = False
        best_candidate = None
        for j in range(n_vars):
            if j in selected:
                continue
            candidate = sorted(selected + [j])
            fit = fitness(x[:, candidate], y)
            evaluations += 1
            if fit > best_fit:
                best_fit = fit
                best_candidate = j
                improved = True
        if best_candidate is not None:
            selected.append(best_candidate)
    return SelectionResult(
        selected=sorted(selected),
        probabilities=None,
        best_fitness=best_fit,
        evaluations=evaluations,
    )


def backward_elimination(
    x: np.ndarray,
    y: np.ndarray,
    fitness: Fitness | None = None,
) -> SelectionResult:
    """Greedy backward elimination (ablation baseline)."""
    fitness = fitness or ridge_cv_fitness()
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n_vars = x.shape[1]
    selected = list(range(n_vars))
    best_fit = fitness(x, y)
    evaluations = 1
    improved = True
    while improved and len(selected) > 1:
        improved = False
        best_drop = None
        for j in list(selected):
            candidate = [v for v in selected if v != j]
            fit = fitness(x[:, candidate], y)
            evaluations += 1
            if fit > best_fit:
                best_fit = fit
                best_drop = j
                improved = True
        if best_drop is not None:
            selected.remove(best_drop)
    return SelectionResult(
        selected=sorted(selected),
        probabilities=None,
        best_fitness=best_fit,
        evaluations=evaluations,
    )
