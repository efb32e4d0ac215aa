import numpy as np
import pytest

from repro.errors import ModelError
from repro.markov import (
    EmpiricalDuration,
    GeometricDuration,
    UniformDuration,
)

ALL_CLASSES = [
    GeometricDuration,
    UniformDuration,
    EmpiricalDuration,
]


@pytest.mark.parametrize("cls", ALL_CLASSES)
class TestCommonContract:
    def test_pmf_sums_to_one(self, cls):
        dist = cls(max_duration=10)
        assert dist.pmf().sum() == pytest.approx(1.0)

    def test_pmf_non_negative(self, cls):
        dist = cls(max_duration=10)
        assert np.all(dist.pmf() >= 0)

    def test_mean_in_support(self, cls):
        dist = cls(max_duration=10)
        assert 1.0 <= dist.mean() <= 10.0

    def test_sample_in_support(self, cls, rng):
        dist = cls(max_duration=6)
        draws = [dist.sample(rng) for _ in range(200)]
        assert min(draws) >= 1 and max(draws) <= 6

    def test_fit_moves_mean_toward_weights(self, cls, rng):
        dist = cls(max_duration=12)
        weights = np.zeros(12)
        weights[7] = 10.0  # durations of 8
        weights[8] = 10.0  # durations of 9
        dist.fit(weights)
        assert dist.mean() > 4.0

    def test_rejects_zero_max_duration(self, cls):
        with pytest.raises(ModelError):
            cls(max_duration=0)


class TestGeometric:
    def test_pmf_decreasing(self):
        pmf = GeometricDuration(10, p=0.4).pmf()
        assert np.all(np.diff(pmf) < 0)

    def test_fit_recovers_rate(self):
        dist = GeometricDuration(50, p=0.9)
        weights = np.zeros(50)
        # Mean duration 4 -> p ~ 0.25.
        weights[3] = 100.0
        dist.fit(weights)
        assert dist.p == pytest.approx(0.25)

    def test_rejects_bad_p(self):
        with pytest.raises(ModelError):
            GeometricDuration(5, p=0.0)


class TestUniform:
    def test_support_window(self):
        dist = UniformDuration(10, low=3, high=6)
        pmf = dist.pmf()
        assert pmf[0] == 0.0 and pmf[2] > 0 and pmf[5] > 0 and pmf[6] == 0.0

    def test_fit_adjusts_window(self):
        dist = UniformDuration(10)
        weights = np.zeros(10)
        weights[4:7] = 1.0
        dist.fit(weights)
        assert (dist.low, dist.high) == (5, 7)

    def test_rejects_bad_window(self):
        with pytest.raises(ModelError):
            UniformDuration(10, low=5, high=3)


class TestEmpirical:
    def test_fit_reproduces_weights(self):
        dist = EmpiricalDuration(4, smoothing=0.0)
        dist.fit(np.array([1.0, 3.0, 0.0, 0.0]))
        np.testing.assert_allclose(dist.pmf(), [0.25, 0.75, 0.0, 0.0])

    def test_smoothing_keeps_all_durations_possible(self):
        dist = EmpiricalDuration(4, smoothing=0.1)
        dist.fit(np.array([0.0, 1.0, 0.0, 0.0]))
        assert np.all(dist.pmf() > 0)

    def test_rejects_wrong_length(self):
        with pytest.raises(ModelError):
            EmpiricalDuration(4).fit(np.ones(3))

    def test_degenerate_weights_fall_back_to_uniform(self):
        dist = EmpiricalDuration(4, smoothing=0.0)
        dist.fit(np.zeros(4))
        np.testing.assert_allclose(dist.pmf(), 0.25)
