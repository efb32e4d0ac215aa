import pytest

from repro.errors import ConfigurationError
from repro.resilience import GaugeSanitizer


class TestBadReads:
    def test_nan_substituted_with_last_good(self):
        sanitizer = GaugeSanitizer()
        assert sanitizer.read("v", lambda: 3.0).value == 3.0
        reading = sanitizer.read("v", lambda: float("nan"))
        assert reading.value == 3.0
        assert not reading.ok
        assert reading.reason == "nan"

    def test_inf_substituted(self):
        sanitizer = GaugeSanitizer()
        sanitizer.read("v", lambda: 2.0)
        reading = sanitizer.read("v", lambda: float("inf"))
        assert reading.value == 2.0
        assert reading.reason == "inf"

    def test_exception_caught_and_substituted(self):
        sanitizer = GaugeSanitizer()
        sanitizer.read("v", lambda: 1.5)

        def boom() -> float:
            raise RuntimeError("gauge died")

        reading = sanitizer.read("v", boom)
        assert reading.value == 1.5
        assert reading.reason == "exception"

    def test_default_before_first_good_value(self):
        sanitizer = GaugeSanitizer()
        reading = sanitizer.read("v", lambda: float("nan"))
        assert reading.value == 0.0

    def test_events_counted_per_variable_and_reason(self):
        sanitizer = GaugeSanitizer()
        sanitizer.read("a", lambda: float("nan"))
        sanitizer.read("a", lambda: float("nan"))
        sanitizer.read("b", lambda: float("inf"))
        assert sanitizer.events["a"]["nan"] == 2
        assert sanitizer.events["b"]["inf"] == 1
        assert sanitizer.total_substitutions == 3


class TestStaleness:
    def test_stale_after_consecutive_bad_reads(self):
        sanitizer = GaugeSanitizer(stale_after=3)
        sanitizer.read("v", lambda: 1.0)
        readings = [sanitizer.read("v", lambda: float("nan")) for _ in range(3)]
        assert [r.stale for r in readings] == [False, False, True]
        assert sanitizer.stale_variables() == ["v"]

    def test_good_read_clears_staleness(self):
        sanitizer = GaugeSanitizer(stale_after=2)
        sanitizer.read("v", lambda: 1.0)
        for _ in range(2):
            sanitizer.read("v", lambda: float("nan"))
        sanitizer.read("v", lambda: 2.0)
        assert sanitizer.stale_variables() == []


class TestStuckDetection:
    def test_repeated_nonzero_value_flagged(self):
        sanitizer = GaugeSanitizer(stuck_after=3)
        for _ in range(3):
            assert sanitizer.read("v", lambda: 5.0).ok
        reading = sanitizer.read("v", lambda: 5.0)
        assert reading.reason == "stuck"
        # The frozen value is still the best estimate: kept, not replaced.
        assert reading.value == 5.0
        assert "v" in sanitizer.stale_variables()

    def test_zero_exempt_from_stuck(self):
        sanitizer = GaugeSanitizer(stuck_after=3)
        for _ in range(10):
            assert sanitizer.read("v", lambda: 0.0).ok

    def test_changing_values_never_stuck(self):
        sanitizer = GaugeSanitizer(stuck_after=3)
        values = iter(range(1, 20))
        for _ in range(10):
            assert sanitizer.read("v", lambda: float(next(values))).ok


class TestPlausibilityChecks:
    def test_lower_bound(self):
        sanitizer = GaugeSanitizer(lower_bound=0.0)
        sanitizer.read("v", lambda: 4.0)
        reading = sanitizer.read("v", lambda: -4.0)
        assert reading.reason == "bound"
        assert reading.value == 4.0

    def test_per_variable_bounds(self):
        sanitizer = GaugeSanitizer(bounds={"util": (0.0, 1.0)})
        sanitizer.read("util", lambda: 0.5)
        assert sanitizer.read("util", lambda: 7.5).reason == "bound"
        # Other variables are unconstrained.
        assert sanitizer.read("other", lambda: 7.5).ok


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            GaugeSanitizer(stale_after=0)
        with pytest.raises(ConfigurationError):
            GaugeSanitizer(stuck_after=1)
