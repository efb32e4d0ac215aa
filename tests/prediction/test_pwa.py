import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.prediction.ubf import (
    ProbabilisticWrapper,
    backward_elimination,
    forward_selection,
    ridge_cv_fitness,
)
from repro.prediction.ubf.pwa import SelectionResult, _median


def reference_ridge_cv(x, y, folds=3, ridge=1e-2):
    """Verbatim copy of ``RidgeCVFitness.__call__`` before it computed
    each fold's ``std`` once."""
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
        std = np.where(x_train.std(axis=0) > 1e-12, x_train.std(axis=0), 1.0)
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


def reference_select(self, x, y):
    """Verbatim copy of ``ProbabilisticWrapper.select`` before it scored
    each distinct mask once and took the median without ``np.median``."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n_vars = x.shape[1]
    if n_vars == 0:
        raise ConfigurationError("no variables to select from")
    probs = np.full(n_vars, 0.5)
    best_subset = list(range(n_vars))
    best_fit = self.fitness(x, y)
    evaluations = 1
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
            fit = self.fitness(x[:, subset], y)
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
        median = np.median(fits_arr[finite])
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


class ColumnCounter:
    """Ridge-CV fitness that records which columns of ``x`` each call saw
    (read back from the first row, whose values are distinct)."""

    def __init__(self, x):
        self.column_of = {value: j for j, value in enumerate(x[0])}
        self.calls: list[tuple[int, ...]] = []

    def __call__(self, x, y):
        self.calls.append(tuple(self.column_of[value] for value in x[0]))
        return ridge_cv_fitness()(x, y)


@pytest.fixture()
def selection_problem(rng):
    """Target depends on variables 0 and 2 only; 1, 3, 4 are noise."""
    x = rng.standard_normal((400, 5))
    y = 2.0 * x[:, 0] - 1.5 * x[:, 2] + 0.1 * rng.standard_normal(400)
    return x, y


class TestRidgeFitness:
    def test_informative_subset_scores_higher(self, selection_problem):
        x, y = selection_problem
        fitness = ridge_cv_fitness()
        good = fitness(x[:, [0, 2]], y)
        bad = fitness(x[:, [1, 3]], y)
        assert good > bad

    def test_empty_subset_is_worst(self, selection_problem):
        x, y = selection_problem
        fitness = ridge_cv_fitness()
        assert fitness(x[:, []], y) == -np.inf

    def test_deterministic(self, selection_problem):
        x, y = selection_problem
        fitness = ridge_cv_fitness()
        assert fitness(x, y) == fitness(x, y)

    def test_rejects_too_few_folds(self):
        with pytest.raises(ConfigurationError):
            ridge_cv_fitness(folds=1)


class TestPWA:
    def test_finds_informative_variables(self, selection_problem, rng):
        x, y = selection_problem
        wrapper = ProbabilisticWrapper(rng=rng)
        result = wrapper.select(x, y)
        assert 0 in result.selected and 2 in result.selected

    def test_probabilities_reflect_importance(self, selection_problem, rng):
        x, y = selection_problem
        wrapper = ProbabilisticWrapper(n_rounds=15, rng=rng)
        result = wrapper.select(x, y)
        probs = result.probabilities
        assert probs[0] > probs[1]
        assert probs[2] > probs[3]

    def test_names_helper(self, selection_problem, rng):
        x, y = selection_problem
        result = ProbabilisticWrapper(rng=rng).select(x, y)
        names = result.names(["a", "b", "c", "d", "e"])
        assert "a" in names and "c" in names

    def test_rejects_empty_problem(self, rng):
        with pytest.raises(ConfigurationError):
            ProbabilisticWrapper(rng=rng).select(np.zeros((10, 0)), np.zeros(10))

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            ProbabilisticWrapper(n_rounds=0)
        with pytest.raises(ConfigurationError):
            ProbabilisticWrapper(learning_rate=0.0)

    def test_evaluation_count_bounded(self, selection_problem, rng):
        x, y = selection_problem
        wrapper = ProbabilisticWrapper(n_rounds=5, samples_per_round=6, rng=rng)
        result = wrapper.select(x, y)
        assert result.evaluations <= 5 * 6 + 1


class TestGreedyBaselines:
    def test_forward_selection_finds_signal(self, selection_problem):
        x, y = selection_problem
        result = forward_selection(x, y)
        assert 0 in result.selected and 2 in result.selected

    def test_forward_selection_max_vars(self, selection_problem):
        x, y = selection_problem
        result = forward_selection(x, y, max_vars=1)
        assert len(result.selected) == 1
        assert result.selected[0] in (0, 2)

    def test_backward_elimination_drops_noise(self, selection_problem):
        x, y = selection_problem
        result = backward_elimination(x, y)
        assert 0 in result.selected and 2 in result.selected
        assert len(result.selected) < 5

    def test_pwa_at_least_as_good_as_greedy(self, selection_problem, rng):
        """The paper claims PWA outperforms both greedy methods; on this
        easy problem it must at least match them."""
        x, y = selection_problem
        pwa = ProbabilisticWrapper(rng=rng).select(x, y)
        fwd = forward_selection(x, y)
        bwd = backward_elimination(x, y)
        assert pwa.best_fitness >= min(fwd.best_fitness, bwd.best_fitness) - 0.01


def _problems():
    """Selection problems: signal in a few columns, constant and
    duplicate columns, and the default UBF's shape (9 gauges)."""
    rng = np.random.default_rng(29)
    problems = []
    for n, d in ((60, 3), (120, 5), (240, 9), (90, 12)):
        x = rng.standard_normal((n, d))
        y = x[:, 0] - 0.5 * x[:, d - 1] + 0.3 * rng.standard_normal(n)
        problems.append((x, y))
    x = rng.standard_normal((80, 6))
    x[:, 2] = 1.0
    x[:, 4] = x[:, 1]
    problems.append((x, x[:, 1] + 0.1 * rng.standard_normal(80)))
    return problems


def _same_result(a: SelectionResult, b: SelectionResult) -> bool:
    return (
        a.selected == b.selected
        and a.probabilities.tobytes() == b.probabilities.tobytes()
        and np.float64(a.best_fitness).tobytes()
        == np.float64(b.best_fitness).tobytes()
        and a.evaluations == b.evaluations
    )


class TestScoredOnce:
    """``select`` reuses a repeated mask's fitness and keeps every result
    of the parent loop, which scored each candidate afresh."""

    @pytest.mark.parametrize("seed", [0, 3, 11, 21])
    @pytest.mark.parametrize("rounds", [(6, 8), (12, 12), (3, 2)])
    def test_same_result_as_the_reference_loop(self, seed, rounds):
        n_rounds, samples = rounds
        for x, y in _problems():
            current = ProbabilisticWrapper(
                n_rounds=n_rounds,
                samples_per_round=samples,
                rng=np.random.default_rng(seed),
            ).select(x, y)
            old = ProbabilisticWrapper(
                fitness=reference_ridge_cv,
                n_rounds=n_rounds,
                samples_per_round=samples,
                rng=np.random.default_rng(seed),
            )
            assert _same_result(current, reference_select(old, x, y))

    @pytest.mark.parametrize("seed", [0, 3, 11, 21])
    def test_each_distinct_mask_is_scored_once(self, seed):
        for x, y in _problems():
            if len(set(x[0])) < x.shape[1]:
                continue  # duplicate columns cannot be told apart
            counter = ColumnCounter(x)
            result = ProbabilisticWrapper(
                fitness=counter,
                n_rounds=6,
                samples_per_round=8,
                rng=np.random.default_rng(seed),
            ).select(x, y)
            # The first call scores every column; each later call is a
            # candidate mask not scored before in this select.
            assert counter.calls[0] == tuple(range(x.shape[1]))
            candidates = counter.calls[1:]
            assert len(set(candidates)) == len(candidates)
            assert result.evaluations == 1 + 6 * 8

    def test_repeated_masks_are_not_rescored(self):
        """Three variables allow seven masks: most candidates repeat."""
        x, y = _problems()[0]
        counter = ColumnCounter(x)
        result = ProbabilisticWrapper(
            fitness=counter,
            n_rounds=12,
            samples_per_round=12,
            rng=np.random.default_rng(5),
        ).select(x, y)
        assert result.evaluations == 1 + 12 * 12
        assert len(counter.calls) <= 1 + 7


class TestExactMedian:
    """``_median`` is ``np.median`` bit for bit, without ``numpy.ma``."""

    def test_bit_equal_to_np_median(self):
        rng = np.random.default_rng(7)
        cases = [
            np.array(v)
            for v in (
                [-0.0],
                [-0.0, -0.0],
                [0.0, -0.0],
                [-0.0, -0.0, -0.0],
                [1.0, 2.0],
                [5e-324, 5e-324],
                [1e308, 1.7e308],
                [-1e308, -1.7e308],
            )
        ]
        for n in range(1, 30):
            cases.append(rng.standard_normal(n))
            cases.append(rng.integers(-3, 4, n).astype(float))
            cases.append(rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n))
            cases.append(rng.choice([-0.0, 0.0, 1.0, -1.0, 5e-324, -5e-324], n))
        with np.errstate(over="ignore"):
            for values in cases:
                expected = np.median(values)
                got = _median(values)
                assert type(got) is type(expected)
                assert got.tobytes() == expected.tobytes(), values
