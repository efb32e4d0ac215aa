"""Vectorized-vs-reference equivalence for the HSMM inference core.

The vectorized kernels must reproduce the original loop implementations
(:class:`~tests.markov.hsmm_reference.ReferenceHSMM`) to within float
reassociation noise -- these tests pin that contract at 1e-8 on randomized
models and sequences, for every inference primitive and both trainers.
"""

import numpy as np
import pytest

from repro.markov import HiddenSemiMarkovModel, UniformDuration
from repro.markov.hsmm import _backward_pass, _default_duration_factory, _forward_pass
from tests.markov.hsmm_reference import ReferenceHSMM, reference_twin


def random_model(rng, n_states, n_symbols, max_duration):
    model = HiddenSemiMarkovModel(
        n_states,
        n_symbols,
        max_duration=max_duration,
        rng=rng,
    )
    # Randomize beyond the constructor defaults so every trial sees a
    # different duration law too.
    model._randomize(rng)
    for dist in model.durations:
        dist.fit(rng.random(max_duration) + 0.05)
    return model


def tables(model, obs):
    """Full ``(alpha, beta)`` log tables, from the loops for a reference."""
    params = model._log_params()
    cum = model._segment_emissions(obs, params.log_b)
    if isinstance(model, ReferenceHSMM):
        return (
            model._forward_reference(obs, params, cum),
            model._backward_reference(obs, params, cum),
        )
    log_pi, log_a, _, log_d = params
    alpha, _ = _forward_pass(obs, log_pi, log_a, log_d, cum, model.max_duration)
    beta, _ = _backward_pass(obs, log_a, log_d, cum, model.max_duration)
    return alpha, beta


SHAPES = [
    # (n_states, n_symbols, max_duration, seq_len)
    (1, 2, 3, 7),
    (2, 3, 5, 20),
    (3, 6, 4, 33),
    (4, 10, 10, 60),
    (5, 4, 8, 25),
]


class TestInferenceEquivalence:
    def test_reference_overrides_every_inference_path(self):
        # Otherwise a comparison would pit the kernels against themselves.
        for name in ("_log_likelihoods", "_segmentations", "_soft_estep"):
            assert getattr(ReferenceHSMM, name) is not getattr(
                HiddenSemiMarkovModel, name
            )

    @pytest.mark.parametrize("n_states,n_symbols,max_duration,seq_len", SHAPES)
    def test_forward_backward_likelihood(
        self, n_states, n_symbols, max_duration, seq_len
    ):
        rng = np.random.default_rng(n_states * 100 + seq_len)
        model = random_model(rng, n_states, n_symbols, max_duration)
        ref = reference_twin(model)
        obs = rng.integers(0, n_symbols, size=seq_len)
        for table, ref_table in zip(tables(model, obs), tables(ref, obs), strict=True):
            np.testing.assert_allclose(table, ref_table, atol=1e-8)
        assert model.log_likelihood(obs) == pytest.approx(
            ref.log_likelihood(obs), abs=1e-8
        )

    @pytest.mark.parametrize("n_states,n_symbols,max_duration,seq_len", SHAPES)
    def test_viterbi_segmentations_identical(
        self, n_states, n_symbols, max_duration, seq_len
    ):
        rng = np.random.default_rng(n_states * 77 + seq_len)
        model = random_model(rng, n_states, n_symbols, max_duration)
        ref = reference_twin(model)
        for _ in range(3):
            obs = rng.integers(0, n_symbols, size=seq_len)
            assert model.viterbi(obs) == ref.viterbi(obs)

    def test_sequence_shorter_than_max_duration(self):
        rng = np.random.default_rng(5)
        model = random_model(rng, 3, 4, max_duration=9)
        ref = reference_twin(model)
        obs = rng.integers(0, 4, size=4)  # T < D exercises the edge clamps
        for table, ref_table in zip(tables(model, obs), tables(ref, obs), strict=True):
            np.testing.assert_allclose(table, ref_table, atol=1e-8)
        np.testing.assert_allclose(
            model.log_likelihood(obs), ref.log_likelihood(obs), atol=1e-8
        )
        assert model.viterbi(obs) == ref.viterbi(obs)

    def test_durations_beyond_int8_backpointers(self):
        # Batched Viterbi stores back-pointers in the smallest integer type
        # that holds them; D = 130 must not squeeze into int8.
        model = HiddenSemiMarkovModel(1, 2, max_duration=130)
        weights = np.full(130, 1e-3)
        weights[129] = 1.0
        model.durations[0].fit(weights)
        ref = reference_twin(model)
        obs = np.random.default_rng(6).integers(0, 2, size=140)
        segments = model.viterbi(obs)
        assert segments == ref.viterbi(obs)
        assert max(segment.duration for segment in segments) == 130


class TestTrainingEquivalence:
    #: Ragged on purpose: hard-EM segments the whole set in one right-padded
    #: pass, so the material mixes a lone-GAP-sized sequence (1), lengths
    #: below ``max_duration`` (3, 4) and full-length ones.
    LENGTHS = (24, 1, 17, 3, 24, 4, 11)

    def _training_material(self, seed):
        rng = np.random.default_rng(seed)
        generator = HiddenSemiMarkovModel(
            2, 3, max_duration=5, rng=np.random.default_rng(seed + 1)
        )
        generator.durations[0] = UniformDuration(5, low=3, high=5)
        generator.durations[1] = UniformDuration(5, low=1, high=2)
        return [generator.sample(length, rng)[1] for length in self.LENGTHS]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_soft_em_matches_reference(self, seed):
        sequences = self._training_material(seed)
        model = HiddenSemiMarkovModel(
            3, 3, max_duration=5, rng=np.random.default_rng(9)
        )
        ref = reference_twin(model)
        trace = model.fit(sequences, max_iter=5, tol=0.0, algorithm="soft")
        ref_trace = ref.fit(sequences, max_iter=5, tol=0.0, algorithm="soft")
        np.testing.assert_allclose(trace, ref_trace, atol=1e-8)
        np.testing.assert_allclose(model.initial, ref.initial, atol=1e-8)
        np.testing.assert_allclose(model.transition, ref.transition, atol=1e-8)
        np.testing.assert_allclose(model.emission, ref.emission, atol=1e-8)
        for dist, ref_dist in zip(model.durations, ref.durations, strict=True):
            np.testing.assert_allclose(dist.pmf(), ref_dist.pmf(), atol=1e-8)

    def test_hard_em_matches_reference(self):
        sequences = self._training_material(3)
        model = HiddenSemiMarkovModel(
            3, 3, max_duration=5, rng=np.random.default_rng(9)
        )
        ref = reference_twin(model)
        trace = model.fit(sequences, max_iter=5, tol=0.0)
        ref_trace = ref.fit(sequences, max_iter=5, tol=0.0)
        np.testing.assert_allclose(trace, ref_trace, atol=1e-8)
        np.testing.assert_allclose(model.initial, ref.initial, atol=1e-8)
        np.testing.assert_allclose(model.emission, ref.emission, atol=1e-8)
        np.testing.assert_allclose(model.transition, ref.transition, atol=1e-8)
        for dist, ref_dist in zip(model.durations, ref.durations, strict=True):
            np.testing.assert_allclose(dist.pmf(), ref_dist.pmf(), atol=1e-8)


class TestBatchScoring:
    def test_batch_matches_individual_scores(self):
        rng = np.random.default_rng(11)
        model = random_model(rng, 3, 5, max_duration=6)
        sequences = [rng.integers(0, 5, size=rng.integers(3, 30)) for _ in range(9)]
        batch = model.log_likelihood_batch(sequences)
        singles = [model.log_likelihood(seq) for seq in sequences]
        assert np.array_equal(batch, singles)

    def test_single_state_batch_is_bit_identical(self):
        # With one state the duration reduction is the only axis left, the
        # case where a shape-dependent (pairwise) sum would make a lone
        # sequence round differently from the same sequence in a batch.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            model = random_model(rng, 1, 4, max_duration=10)
            sequences = [
                rng.integers(0, 4, size=rng.integers(1, 40)) for _ in range(8)
            ]
            batch = model.log_likelihood_batch(sequences)
            assert np.array_equal(batch, [model.log_likelihood(s) for s in sequences])

    def test_batch_empty(self):
        model = HiddenSemiMarkovModel(2, 3)
        assert model.log_likelihood_batch([]).size == 0


class TestParameterCache:
    def test_version_bumps_only_on_change(self):
        model = HiddenSemiMarkovModel(2, 3, rng=np.random.default_rng(1))
        model.log_likelihood([0, 1, 2])
        version = model.params_version
        model.log_likelihood([2, 1, 0])
        assert model.params_version == version  # cache hit
        model.emission = np.array([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
        model.log_likelihood([0, 1, 2])
        assert model.params_version == version + 1

    def test_in_place_mutation_invalidates_cache(self):
        model = HiddenSemiMarkovModel(2, 3, rng=np.random.default_rng(1))
        before = model.log_likelihood([0, 0, 1])
        model.emission[0, 0] += 0.05  # mutate without reassignment
        after = model.log_likelihood([0, 0, 1])
        assert before != after

    def test_duration_refit_invalidates_cache(self):
        model = HiddenSemiMarkovModel(2, 3, max_duration=4)
        before = model.log_likelihood([0, 1, 0, 1])
        model.durations[0].fit(np.array([5.0, 1.0, 0.1, 0.1]))
        after = model.log_likelihood([0, 1, 0, 1])
        assert before != after


class TestStrategySwitch:
    def test_default_factory_is_picklable(self):
        import pickle

        model = HiddenSemiMarkovModel(2, 3)
        assert model._duration_factory is _default_duration_factory
        pickle.loads(pickle.dumps(model))

    def test_restarts_same_rng_same_winner(self):
        rng = np.random.default_rng(4)
        generator = HiddenSemiMarkovModel(
            2, 3, max_duration=4, rng=np.random.default_rng(8)
        )
        sequences = [generator.sample(20, rng)[1] for _ in range(6)]

        def fit_with_restarts():
            model = HiddenSemiMarkovModel(2, 3, max_duration=4)
            trace = model.fit(
                sequences,
                max_iter=4,
                n_restarts=3,
                restart_rng=np.random.default_rng(0),
            )
            return model, trace

        model, trace = fit_with_restarts()
        assert model.is_fitted
        assert np.isfinite(trace[-1])
        # Restarts draw from the one restart_rng stream, so the same rng
        # picks the same winner, bit for bit.
        twin, twin_trace = fit_with_restarts()
        assert trace == twin_trace
        assert np.array_equal(model.emission, twin.emission)
        assert np.array_equal(model.transition, twin.transition)
        assert np.array_equal(
            model.log_likelihood_batch(sequences),
            twin.log_likelihood_batch(sequences),
        )


class CountingGenerator:
    """Delegating rng wrapper that counts ``choice`` draws."""

    def __init__(self, rng):
        self._rng = rng
        self.choice_calls = 0

    def choice(self, *args, **kwargs):
        self.choice_calls += 1
        return self._rng.choice(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class TestSampleDrawAccounting:
    def test_no_trailing_transition_draw(self):
        """Regression: sample() used to draw one transition after the
        sequence was already full, desynchronizing back-to-back sampling."""
        model = HiddenSemiMarkovModel(
            2, 3, max_duration=4, rng=np.random.default_rng(3)
        )
        for seed in range(5):
            rng = CountingGenerator(np.random.default_rng(seed))
            length = 17
            states, observations = model.sample(length, rng)
            assert len(observations) == length
            runs = 1 + sum(
                1 for a, b in zip(states, states[1:], strict=False) if a != b
            )
            # 1 initial draw + one duration draw per segment + one emission
            # draw per slot + one transition draw per segment *boundary*.
            expected = 1 + runs + length + (runs - 1)
            assert rng.choice_calls == expected
