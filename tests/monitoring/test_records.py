import numpy as np
import pytest

from repro.monitoring.records import EventSequence


class TestEventSequence:
    def test_length(self):
        seq = EventSequence(times=[1.0, 2.0], message_ids=[10, 20])
        assert len(seq) == 2

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            EventSequence(times=[1.0], message_ids=[1, 2])

    def test_delays_include_origin_offset(self):
        seq = EventSequence(
            times=[10.0, 15.0, 25.0], message_ids=[1, 2, 3], origin=5.0
        )
        np.testing.assert_allclose(seq.delays, [5.0, 5.0, 10.0])

    def test_empty_sequence_delays(self):
        seq = EventSequence(times=[], message_ids=[])
        assert seq.delays.size == 0

    def test_label_default_false(self):
        assert not EventSequence(times=[1.0], message_ids=[1]).label

    def test_arrays_coerced(self):
        seq = EventSequence(times=[1, 2], message_ids=[1.0, 2.0])
        assert seq.times.dtype == float
        assert seq.message_ids.dtype == int
