"""The container reductions of the SCP gauges equal numpy bit for bit.

``numpy_sum``, ``numpy_mean`` and ``numpy_max`` replace ``np.sum``,
``np.mean`` and ``np.max`` over the containers.  Each must give numpy's
float exactly (compared as bytes) for 1-10 values with NaN, ±inf and
±0.0 among them.  From 8 values on numpy sums in eight partial sums, so
plain left-to-right addition would differ there.

Two things numpy leaves to the CPU are compared by kind only: which NaN
comes out when a NaN appears (any NaN is substituted by the sanitizer),
and the sign of a zero maximum that +0.0 and -0.0 both attain (numpy's
vectorized max loop picks either, depending on the SIMD width).
"""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import Engine, RandomStreams
from repro.telecom import SCPConfig, SCPSystem
from repro.telecom.system import numpy_max, numpy_mean, numpy_sum

SPECIALS = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0])
VALUES = st.lists(
    st.one_of(st.floats(-1e6, 1e6), st.floats(), SPECIALS),
    min_size=1,
    max_size=10,
)


def _assert_same(actual: float, expected: float) -> None:
    assert type(actual) is float
    if math.isnan(expected):
        assert math.isnan(actual)
    else:
        assert struct.pack("<d", actual) == struct.pack("<d", expected)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_sum_is_numpy_sum(values):
    with np.errstate(invalid="ignore"):
        expected = float(np.sum(values))
    _assert_same(numpy_sum(values), expected)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_mean_is_numpy_mean(values):
    with np.errstate(invalid="ignore"):
        expected = float(np.mean(values))
    _assert_same(numpy_mean(values), expected)


@settings(max_examples=400, deadline=None)
@given(VALUES)
def test_max_is_numpy_max(values):
    expected = float(np.max(values))
    actual = numpy_max(values)
    zero_signs = {math.copysign(1.0, v) for v in values if v == 0}
    if expected == 0 and zero_signs == {1.0, -1.0}:
        assert actual == 0  # numpy's sign here depends on the SIMD width
    else:
        _assert_same(actual, expected)


def test_signed_zeros_follow_numpy():
    assert struct.pack("<d", numpy_sum([-0.0])) == struct.pack("<d", 0.0)
    assert struct.pack("<d", numpy_max([0.0, -0.0])) == struct.pack("<d", -0.0)
    assert struct.pack("<d", numpy_max([-0.0, 0.0])) == struct.pack("<d", 0.0)


def test_random_draws_of_every_container_count():
    """Left-to-right addition differs from numpy on a quarter to a third of
    these draws from 8 values on, so the pairwise order is exercised."""
    rng = np.random.default_rng(17)
    for n in range(1, 12):
        for values in rng.uniform(-1e3, 1e3, size=(300, n)).tolist():
            _assert_same(numpy_sum(values), float(np.sum(values)))
            _assert_same(numpy_mean(values), float(np.mean(values)))
            _assert_same(numpy_max(values), float(np.max(values)))


def test_long_sums_split_in_halves():
    values = [float(v) for v in np.random.default_rng(3).normal(size=300) * 1e3]
    _assert_same(numpy_sum(values), float(np.sum(values)))


def test_system_gauges_read_the_containers():
    engine = Engine()
    system = SCPSystem(engine, RandomStreams(7), SCPConfig(n_containers=5))
    system.start()
    engine.run(until=3_600.0)
    gauges = {gauge.variable: gauge.read for gauge in system.system_gauges()}
    containers = system.containers
    expected = {
        "cpu_utilization": np.mean([c.utilization for c in containers]),
        "memory_free_mb": np.sum([c.memory_free_mb for c in containers]),
        "swap_activity": np.max([c.swap_activity for c in containers]),
        "max_stretch": np.max([c.last_stretch for c in containers]),
    }
    for variable, value in expected.items():
        _assert_same(gauges[variable](), float(value))
