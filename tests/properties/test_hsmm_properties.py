"""Hypothesis property tests for the HSMM machinery."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.markov import HiddenSemiMarkovModel
from tests.markov.hsmm_reference import reference_twin


def symbol_sequences(n_symbols=3, min_len=2, max_len=20):
    return st.lists(
        st.integers(0, n_symbols - 1), min_size=min_len, max_size=max_len
    )


class TestHSMMProperties:
    @given(symbol_sequences(max_len=14), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_likelihood_is_log_probability(self, sequence, seed):
        model = HiddenSemiMarkovModel(
            2, 3, max_duration=4, rng=np.random.default_rng(seed)
        )
        assert model.log_likelihood(sequence) <= 1e-9

    @given(symbol_sequences(max_len=12), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_viterbi_segments_partition_sequence(self, sequence, seed):
        model = HiddenSemiMarkovModel(
            2, 3, max_duration=4, rng=np.random.default_rng(seed)
        )
        segments = model.viterbi(sequence)
        assert segments[0].start == 0
        assert segments[-1].end == len(sequence) - 1
        covered = sum(segment.duration for segment in segments)
        assert covered == len(sequence)
        for segment in segments:
            assert 1 <= segment.duration <= 4

    @given(symbol_sequences(max_len=12), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_viterbi_score_never_exceeds_total_likelihood(self, sequence, seed):
        """The best single segmentation is one term of the forward sum."""
        model = HiddenSemiMarkovModel(
            2, 3, max_duration=4, rng=np.random.default_rng(seed)
        )
        segments = model.viterbi(sequence)
        viterbi_score = model._segmentation_score(
            np.asarray(sequence, dtype=int), segments
        )
        assert viterbi_score <= model.log_likelihood(sequence) + 1e-9

    @given(st.integers(2, 15), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sampling_round_trip_valid(self, length, seed):
        rng = np.random.default_rng(seed)
        model = HiddenSemiMarkovModel(2, 3, max_duration=4, rng=rng)
        states, observations = model.sample(length, rng)
        assert len(observations) == length
        # Generated observations are scoreable.
        assert np.isfinite(model.log_likelihood(observations))


MAX_DURATION = 4
N_SYMBOLS = 3


@st.composite
def ragged_batches(draw):
    """Batches of the shapes the padded kernels must handle exactly.

    Each sequence is one of: a single symbol (an empty error window
    encodes to one GAP symbol), shorter than ``max_duration``, or longer.
    Some sequences are repeated, and a batch may hold just one.
    """
    symbol = st.integers(0, N_SYMBOLS - 1)
    sequence = st.one_of(
        st.lists(symbol, min_size=1, max_size=1),
        st.lists(symbol, min_size=2, max_size=MAX_DURATION - 1),
        st.lists(symbol, min_size=MAX_DURATION, max_size=3 * MAX_DURATION),
    )
    batch = draw(st.lists(sequence, min_size=1, max_size=6))
    repeats = draw(st.lists(st.integers(0, len(batch) - 1), max_size=3))
    return draw(st.permutations(batch + [batch[i] for i in repeats]))


def randomized_model(n_states, seed):
    """A model with randomized transitions, emissions and durations."""
    rng = np.random.default_rng(seed)
    model = HiddenSemiMarkovModel(
        n_states, N_SYMBOLS, max_duration=MAX_DURATION, rng=rng
    )
    model._randomize(rng)
    for dist in model.durations:
        dist.fit(rng.random(MAX_DURATION) + 0.05)
    return model


class TestRaggedBatchProperties:
    @given(ragged_batches(), st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_batch_scores_equal_single_scores_exactly(self, batch, n_states, seed):
        model = randomized_model(n_states, seed)
        scores = model.log_likelihood_batch(batch)
        singles = [model.log_likelihood(sequence) for sequence in batch]
        assert np.array_equal(scores, singles)

    @given(ragged_batches(), st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_batch_scores_match_reference(self, batch, n_states, seed):
        model = randomized_model(n_states, seed)
        np.testing.assert_allclose(
            model.log_likelihood_batch(batch),
            reference_twin(model).log_likelihood_batch(batch),
            rtol=0,
            atol=1e-8,
        )

    @given(ragged_batches(), st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_batched_viterbi_matches_reference(self, batch, n_states, seed):
        model = randomized_model(n_states, seed)
        observations = [np.asarray(sequence) for sequence in batch]
        batched = model._segmentations(observations, model._log_params())
        ref = reference_twin(model)
        assert batched == [ref.viterbi(sequence) for sequence in batch]
