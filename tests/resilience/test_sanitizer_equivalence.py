"""The sanitizer's good path against the verbatim oracle.

``GaugeSanitizer.read`` checks a finite, in-bounds, non-stuck reading
inline and allocates only its result.
:class:`~tests.resilience.sanitizer_reference.ReferenceGaugeSanitizer`
is the code before that change.  Generated read sequences over several
variables mix finite values (exact zeros and repeated runs that trip the
stuck detector among them), NaN, ±inf, raising reads and out-of-bounds
values; every returned reading, the per-variable substitution counts,
the stale set and the hub's metrics and events must be equal.  The
oracle keeps the spike filter the sanitizer has since dropped; it stays
off (its default) here, as it was in every run.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience.sanitizer import GaugeSanitizer
from repro.telemetry.hub import TelemetryHub
from tests.resilience.sanitizer_reference import ReferenceGaugeSanitizer

VARIABLES = ("cpu", "mem", "swap")
BOUNDS = {"cpu": (0.0, 1.0), "swap": (None, 50.0)}
RAISE = "raise"

#: Few distinct finite values, so runs repeat.
FINITE = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 3.0, 40.0, 900.0, -2.0])
READING = st.one_of(
    FINITE,
    st.floats(-1e3, 1e3),
    st.sampled_from([math.nan, math.inf, -math.inf, RAISE]),
)
#: (variable, reading, how many times in a row it is read).
SEGMENTS = st.lists(
    st.tuples(st.sampled_from(VARIABLES), READING, st.integers(1, 8)),
    min_size=1,
    max_size=25,
)


def _read_fn(reading):
    if reading == RAISE:
        def raises():
            raise RuntimeError("gauge down")

        return raises
    return lambda: reading


def _bits(value):
    return struct.pack("<d", value)


def _same_reading(new, old):
    assert (new.variable, new.ok, new.reason, new.stale) == (
        old.variable, old.ok, old.reason, old.stale
    )
    assert _bits(new.value) == _bits(old.value)
    assert _bits(new.raw) == _bits(old.raw)


@pytest.mark.parametrize("lower_bound", [None, 0.0])
@pytest.mark.parametrize("bounds", [None, BOUNDS])
@settings(max_examples=40, deadline=None)
@given(
    segments=SEGMENTS,
    stale_after=st.integers(1, 4),
    stuck_after=st.integers(2, 5),
)
def test_reads_match_the_reference(
    lower_bound, bounds, segments, stale_after, stuck_after
):
    config = {
        "stale_after": stale_after,
        "stuck_after": stuck_after,
        "lower_bound": lower_bound,
        "bounds": bounds,
    }
    new = GaugeSanitizer(**config, telemetry=TelemetryHub())
    old = ReferenceGaugeSanitizer(**config, telemetry=TelemetryHub())
    for variable, reading, times in segments:
        for _ in range(times):
            _same_reading(
                new.read(variable, _read_fn(reading)),
                old.read(variable, _read_fn(reading)),
            )
    assert new.events == old.events
    assert new.stale_variables() == old.stale_variables()
    assert new.total_substitutions == old.total_substitutions
    assert new.telemetry.registry.to_state() == old.telemetry.registry.to_state()
    assert [e.to_dict() for e in new.telemetry.events] == [
        e.to_dict() for e in old.telemetry.events
    ]
