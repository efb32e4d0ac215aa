import numpy as np
import pytest

from repro.prediction import max_f_threshold
from repro.prediction.metrics import ContingencyTable
from repro.prediction.thresholds import table_at_max_f


def separable():
    scores = np.array([0.95, 0.9, 0.85, 0.4, 0.3, 0.2, 0.1, 0.05])
    labels = np.array([True, True, True, False, False, False, False, False])
    return scores, labels


class TestMaxF:
    def test_perfect_separation_gives_f_one(self):
        scores, labels = separable()
        threshold, f_value = max_f_threshold(scores, labels)
        assert f_value == pytest.approx(1.0)
        assert 0.4 < threshold <= 0.85

    def test_threshold_actually_achieves_reported_f(self, rng):
        scores = rng.random(300)
        labels = (scores + 0.4 * rng.standard_normal(300)) > 0.6
        if not labels.any():
            pytest.skip("degenerate draw")
        threshold, f_value = max_f_threshold(scores, labels)
        table = ContingencyTable.from_scores(scores, labels, threshold)
        assert table.f_measure == pytest.approx(f_value)

    def test_no_other_threshold_beats_max_f(self, rng):
        scores = rng.random(100)
        labels = rng.random(100) < 0.3
        if not labels.any():
            pytest.skip("degenerate draw")
        _, best_f = max_f_threshold(scores, labels)
        for candidate in np.linspace(0, 1, 23):
            table = ContingencyTable.from_scores(scores, labels, candidate)
            assert table.f_measure <= best_f + 1e-12


def test_table_at_max_f_consistent():
    scores, labels = separable()
    table = table_at_max_f(scores, labels)
    assert table.f_measure == pytest.approx(1.0)
