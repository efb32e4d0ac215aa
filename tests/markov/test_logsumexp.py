"""The HSMM's ``_logsumexp`` against ``scipy.special.logsumexp``.

Values, shapes and scalar type must be scipy's, non-finite rows and ties
included.  The Hypothesis cases compare with the installed scipy when it
is the 1.17 release the port copies; the pinned outputs hold the port
where scipy is absent or another release computes differently.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from repro.markov.hsmm import _logsumexp
from tests.scipy_reference import scipy_reference

ELEMENTS = st.one_of(
    st.floats(-1e3, 1e3, allow_nan=False),
    st.integers(-3, 3).map(float),  # ties
    st.sampled_from([-np.inf, np.inf, np.nan, 709.5, -745.5, 1e308]),
)


def assert_same(ours, theirs):
    assert type(ours) is type(theirs)
    assert np.shape(ours) == np.shape(theirs)
    assert np.asarray(ours).tobytes() == np.asarray(theirs).tobytes()


@st.composite
def cases(draw):
    a = draw(arrays(np.float64, array_shapes(min_dims=0, max_dims=3), elements=ELEMENTS))
    axes = [None] + list(range(a.ndim))
    return a, draw(st.sampled_from(axes))


@given(cases())
@settings(max_examples=300, deadline=None)
def test_equals_scipy(case):
    special = scipy_reference("scipy.special")
    a, axis = case
    with np.errstate(all="ignore"):
        assert_same(_logsumexp(a, axis=axis), special.logsumexp(a, axis=axis))


PINNED = [
    ([0.0, 0.0], None, ["0x1.62e42fefa39efp-1"]),
    ([1.0, 1.0, 1.0], None, ["0x1.0c9f53d568186p+1"]),
    ([-np.inf, -np.inf], None, ["-inf"]),
    ([np.inf, 1.0], None, ["inf"]),
    ([np.nan, 1.0], None, ["nan"]),
    ([-745.0, -744.5, 700.25], None, ["0x1.5e20000000000p+9"]),
]
MATRIX = [[0.5, -1.25, 3.0], [-np.inf, -np.inf, -np.inf], [2.0, 2.0, -7.5]]


@pytest.mark.parametrize("values, axis, expected", PINNED)
def test_pinned_scalars(values, axis, expected):
    out = _logsumexp(np.array(values), axis=axis)
    assert type(out) is np.float64
    assert [out.hex()] == expected


@pytest.mark.parametrize(
    "axis, expected",
    [
        (1, ["0x1.8bc630a7ab75fp+1", "-inf", "0x1.58ba45edf2396p+1"]),
        (0, ["0x1.19c7e908f5421p+1", "0x1.04de8a27a5a21p+1", "0x1.8000e6fd42b33p+1"]),
    ],
)
def test_pinned_rows(axis, expected):
    out = _logsumexp(np.array(MATRIX), axis=axis)
    assert out.shape == (3,)
    assert [float(v).hex() for v in out] == expected
