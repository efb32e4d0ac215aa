"""Hypothesis property tests for the Markov substrate."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.markov import CTMC, DTMC, PhaseTypeDistribution


def stochastic_matrices(n):
    """Row-stochastic matrices built from positive weights."""
    return arrays(
        np.float64,
        (n, n),
        elements=st.floats(0.01, 10.0, allow_nan=False),
    ).map(lambda w: w / w.sum(axis=1, keepdims=True))


def generator_matrices(n):
    """CTMC generators from positive off-diagonal rates."""

    def to_generator(w):
        q = w.copy()
        np.fill_diagonal(q, 0.0)
        return q

    return arrays(
        np.float64,
        (n, n),
        elements=st.floats(0.01, 5.0, allow_nan=False),
    ).map(to_generator)


class TestDTMCProperties:
    @given(stochastic_matrices(4))
    @settings(max_examples=40, deadline=None)
    def test_stationary_is_distribution_and_fixed_point(self, matrix):
        chain = DTMC(matrix)
        pi = chain.stationary_distribution()
        assert pi.min() >= 0
        assert abs(pi.sum() - 1.0) < 1e-8
        np.testing.assert_allclose(pi @ chain.matrix, pi, atol=1e-7)

    @given(stochastic_matrices(3), st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_evolution_preserves_distribution(self, matrix, steps):
        chain = DTMC(matrix)
        dist = chain.step_distribution(np.array([1.0, 0.0, 0.0]), steps)
        assert abs(dist.sum() - 1.0) < 1e-9
        assert dist.min() >= -1e-12


class TestCTMCProperties:
    @given(generator_matrices(4))
    @settings(max_examples=40, deadline=None)
    def test_steady_state_solves_balance(self, q):
        chain = CTMC(q)
        pi = chain.steady_state()
        assert abs(pi.sum() - 1.0) < 1e-8
        np.testing.assert_allclose(pi @ chain.generator, 0.0, atol=1e-7)

    @given(generator_matrices(3), st.floats(0.0, 20.0))
    @settings(max_examples=40, deadline=None)
    def test_transient_is_distribution(self, q, t):
        chain = CTMC(q)
        dist = chain.transient_distribution([1.0, 0.0, 0.0], t)
        assert abs(dist.sum() - 1.0) < 1e-7
        assert dist.min() >= -1e-9

    @given(generator_matrices(3))
    @settings(max_examples=30, deadline=None)
    def test_uniformization_preserves_steady_state(self, q):
        chain = CTMC(q)
        dtmc, _ = chain.uniformized_dtmc()
        np.testing.assert_allclose(
            dtmc.stationary_distribution(), chain.steady_state(), atol=1e-6
        )


class TestPhaseTypeProperties:
    @given(
        st.lists(st.floats(0.05, 5.0), min_size=1, max_size=4),
        st.floats(0.0, 10.0),
        st.floats(0.0, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    # F(1e-5) is about 1e-21 here; unclipped it rounded to -2.2e-16.
    @example(rates=[1.453125, 1.84375, 1.0, 1.0], t1=0.0, t2=1e-05)
    def test_cdf_monotone_and_bounded(self, rates, t1, t2):
        """Erlang-style chains: F is a cdf (monotone, in [0, 1])."""
        n = len(rates)
        t = np.zeros((n, n))
        for i, rate in enumerate(rates):
            t[i, i] = -rate
            if i + 1 < n:
                t[i, i + 1] = rate
        alpha = np.zeros(n)
        alpha[0] = 1.0
        pt = PhaseTypeDistribution(t, alpha)
        lo, hi = sorted([t1, t2])
        assert 0.0 <= pt.cdf(lo) <= pt.cdf(hi) <= 1.0
        assert pt.pdf(t1) >= 0.0

    @given(st.floats(0.05, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_exponential_special_case(self, rate):
        pt = PhaseTypeDistribution(np.array([[-rate]]), np.array([1.0]))
        assert abs(pt.mean() - 1.0 / rate) < 1e-9
        assert abs(pt.hazard(1.0) - rate) < 1e-6
