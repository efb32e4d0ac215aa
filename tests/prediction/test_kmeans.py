"""The numpy k-means port against ``scipy.cluster.vq.kmeans2(minit="++")``.

Every float must be scipy's.  The Hypothesis cases compare with the
installed scipy when it is the 1.17 release the port copies; the pinned
outputs keep the port honest where scipy is absent or another release
computes differently.
"""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.prediction.kmeans import kmeans2
from tests.scipy_reference import scipy_reference

SEEDS = st.integers(0, 2**31 - 2)


def scipy_kmeans2(data, k, seed):
    vq = scipy_reference("scipy.cluster.vq")
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("ignore")  # scipy's empty-cluster warning
        return vq.kmeans2(data, k, minit="++", seed=seed)


def port(data, k, seed):
    with np.errstate(invalid="ignore"):  # all points already centres: 0 / 0
        return kmeans2(data, k, seed)


def assert_same(ours, theirs):
    (centers, labels), (expected_centers, expected_labels) = ours, theirs
    assert centers.dtype == expected_centers.dtype
    assert labels.dtype == expected_labels.dtype
    assert centers.tobytes() == expected_centers.tobytes()
    assert labels.tobytes() == expected_labels.tobytes()


@st.composite
def low_dimensional(draw):
    """Up to four dimensions, duplicates and grid ties included."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    grid = st.integers(-3, 3).map(float)
    spread = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    data = draw(arrays(np.float64, (n, d), elements=draw(st.sampled_from([grid, spread]))))
    return data, draw(st.integers(1, 12)), draw(SEEDS)


class TestAgainstScipy:
    @given(low_dimensional())
    @settings(max_examples=150, deadline=None)
    def test_up_to_four_dimensions(self, case):
        data, k, seed = case
        assert_same(port(data, k, seed), scipy_kmeans2(data, k, seed))

    @given(
        st.integers(2, 200), st.integers(5, 12), st.integers(1, 16), SEEDS
    )
    @settings(max_examples=60, deadline=None)
    def test_wide_continuous_inputs(self, n, d, k, seed):
        """From five dimensions scipy ranks centres by a BLAS expansion;
        on continuous data no two centres are equally near."""
        data = np.random.default_rng(seed).normal(size=(n, d))
        assert_same(port(data, k, seed), scipy_kmeans2(data, k, seed))


class TestPinned:
    def test_three_clusters(self):
        data = np.array(
            [[i % 4, (i * 7) % 5, (i * i) % 3] for i in range(14)], dtype=float
        ) + np.arange(14)[:, None] / 16.0
        centers, labels = kmeans2(data, 3, 7)
        expected = [
            ["0x1.2c00000000000p+0", "0x1.f600000000000p+1", "0x1.d800000000000p-1"],
            ["0x1.3800000000000p+0", "0x1.0d55555555555p+0", "0x1.3800000000000p+0"],
            ["0x1.9600000000000p+1", "0x1.5600000000000p+1", "0x1.d800000000000p-1"],
        ]
        assert [[v.hex() for v in row] for row in centers] == expected
        assert labels.tolist() == [1, 1, 0, 2, 0, 1, 2, 2, 1, 0, 1, 2, 0, 1]
        assert labels.dtype == np.int32

    def test_an_empty_cluster_keeps_its_centre(self):
        """Three distinct points, five clusters: the surplus centres repeat
        the first point and stay where they are."""
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        centers, labels = port(np.repeat(points, 2, axis=0), 5, 3)
        assert centers.tolist() == [[1, 0], [0, 0], [0, 2], [0, 0], [0, 0]]
        assert labels.tolist() == [1, 1, 0, 0, 2, 2]

    def test_six_dimensions(self):
        data = np.random.default_rng(4).normal(size=(40, 6))
        centers, labels = kmeans2(data, 4, 99)
        assert hashlib.sha256(centers.tobytes()).hexdigest()[:16] == "8ea7749abfe68a89"
        assert labels.tolist() == [
            1, 0, 0, 3, 2, 0, 3, 3, 2, 0, 1, 3, 0, 0, 1, 3, 1, 1, 0, 3,
            3, 1, 2, 0, 3, 1, 1, 1, 3, 1, 1, 1, 3, 3, 2, 0, 3, 3, 1, 2,
        ]


class TestValidation:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_is_a_value_error(self, bad):
        data = np.zeros((4, 2))
        data[2, 1] = bad
        with pytest.raises(ValueError):
            kmeans2(data, 2, 0)

    def test_no_clusters_is_a_value_error(self):
        with pytest.raises(ValueError):
            kmeans2(np.zeros((4, 2)), 0, 0)
