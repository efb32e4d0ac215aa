"""Counter / gauge / histogram semantics and registry identity rules."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.telemetry.metrics import (
    NULL_INSTRUMENT,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_counts_up(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increments(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ConfigurationError):
            counter.inc(-1.0)


class TestGauge:
    def test_set_and_add(self):
        gauge = MetricsRegistry().gauge("g")
        assert math.isnan(gauge.value)
        gauge.set(4.0)
        gauge.add(-1.5)
        assert gauge.value == 2.5

    def test_add_from_unset_starts_at_zero(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.add(3.0)
        assert gauge.value == 3.0


class TestHistogram:
    def test_exact_aggregates(self):
        hist = MetricsRegistry().histogram("h")
        for value in (1.0, 2.0, 3.0, 4.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.total == 10.0
        assert hist.min == 1.0
        assert hist.max == 4.0
        assert hist.mean == 2.5

    def test_quantiles_exact_below_reservoir_size(self):
        hist = MetricsRegistry().histogram("h")
        for value in range(101):
            hist.observe(float(value))
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(0.5) == 50.0
        assert hist.quantile(1.0) == 100.0

    def test_reservoir_is_bounded_and_deterministic(self):
        def build():
            hist = Histogram(name="h", reservoir_size=32)
            for value in range(10_000):
                hist.observe(float(value))
            return hist

        first, second = build(), build()
        assert len(first._reservoir) == 32
        assert first._reservoir == second._reservoir
        assert first.count == 10_000
        # The reservoir is a uniform sample, so the median estimate must
        # land in the bulk of the distribution.
        assert 1_000 < first.quantile(0.5) < 9_000

    def test_quantile_validation(self):
        hist = Histogram(name="h")
        with pytest.raises(ConfigurationError):
            hist.quantile(1.5)
        assert math.isnan(hist.quantile(0.5))  # empty


class TestRegistry:
    def test_same_key_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", route="a")
        again = registry.counter("hits", route="a")
        other = registry.counter("hits", route="b")
        assert a is again
        assert a is not other
        assert len(registry) == 2

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("metric")
        with pytest.raises(ConfigurationError):
            registry.gauge("metric")

    def test_resolved_lookups_keep_every_series_apart(self):
        registry = MetricsRegistry()
        both = registry.counter("hits", a="x", b="y")
        assert registry.counter("hits", b="y", a="x") is both
        # Equal as dict keys, distinct as label strings "1" and "True".
        one, true = registry.counter("n", v=1), registry.counter("n", v=True)
        assert one is not true and registry.counter("n", v=1) is one
        assert registry.counter("odd", v=[1]) is registry.counter("odd", v=[1])
        with pytest.raises(ConfigurationError):
            registry.gauge("hits", a="x", b="y")
        assert len(registry) == 4

    def test_families_group_by_name(self):
        registry = MetricsRegistry()
        registry.counter("hits", route="a").inc()
        registry.counter("hits", route="b").inc(2)
        registry.gauge("depth").set(1.0)
        families = registry.families()
        assert set(families) == {"hits", "depth"}
        assert len(families["hits"]) == 2

    def test_snapshot_is_json_ready(self):
        registry = MetricsRegistry()
        registry.counter("hits", route="a").inc(3)
        registry.histogram("lat").observe(0.5)
        snap = registry.snapshot()
        assert snap['hits{route=a}'] == 3
        assert snap["lat"]["count"] == 1


class TestMerge:
    def test_counters_add(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("hits").inc(3)
        b.counter("hits").inc(4)
        b.counter("other").inc(1)
        a.merge(b)
        assert a.counter("hits").value == 7
        assert a.counter("other").value == 1

    def test_gauges_last_merge_wins_but_nan_skipped(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.gauge("depth").set(2.0)
        b.gauge("depth")  # never set: NaN must not clobber 2.0
        a.merge(b)
        assert a.gauge("depth").value == 2.0
        c = MetricsRegistry()
        c.gauge("depth").set(9.0)
        a.merge(c)
        assert a.gauge("depth").value == 9.0

    def test_histograms_pool_exactly_below_reservoir_size(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for value in (1.0, 2.0):
            a.histogram("lat").observe(value)
        for value in (3.0, 4.0):
            b.histogram("lat").observe(value)
        a.merge(b)
        hist = a.histogram("lat")
        assert hist.count == 4
        assert hist.total == 10.0
        assert hist.min == 1.0
        assert hist.max == 4.0
        assert hist.quantile(0.5) == 2.5

    def test_histogram_merge_over_capacity_is_deterministic(self):
        def merged():
            a = Histogram(name="h", reservoir_size=16)
            b = Histogram(name="h", reservoir_size=16)
            for value in range(100):
                a.observe(float(value))
                b.observe(float(value) + 0.5)
            a.merge(b)
            return a

        first, second = merged(), merged()
        assert first.count == 200
        assert len(first._reservoir) == 16
        assert first._reservoir == second._reservoir

    def test_labels_participate_in_merge_identity(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("hits", route="x").inc()
        b.counter("hits", route="y").inc()
        a.merge(b)
        assert len(a) == 2


class TestState:
    def test_round_trip_preserves_values(self):
        registry = MetricsRegistry()
        registry.counter("hits", route="a").inc(3)
        registry.gauge("depth").set(1.5)
        registry.histogram("lat").observe(0.5)
        clone = MetricsRegistry.from_state(registry.to_state())
        assert clone.counter("hits", route="a").value == 3
        assert clone.gauge("depth").value == 1.5
        assert clone.histogram("lat").count == 1
        assert clone.snapshot() == registry.snapshot()

    def test_state_is_json_serializable(self):
        import json

        registry = MetricsRegistry()
        registry.histogram("lat").observe(2.0)
        registry.gauge("unset")
        text = json.dumps(registry.to_state())
        clone = MetricsRegistry.from_state(json.loads(text))
        assert clone.histogram("lat").total == 2.0
        assert math.isnan(clone.gauge("unset").value)

    def test_state_then_merge_equals_direct_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        direct = MetricsRegistry()
        direct.merge(a)
        direct.merge(b)
        via_state = MetricsRegistry()
        via_state.merge(MetricsRegistry.from_state(a.to_state()))
        via_state.merge(MetricsRegistry.from_state(b.to_state()))
        assert direct.snapshot() == via_state.snapshot()


class TestNullInstrument:
    def test_all_operations_are_noops(self):
        NULL_INSTRUMENT.inc()
        NULL_INSTRUMENT.inc(5)
        NULL_INSTRUMENT.set(1.0)
        NULL_INSTRUMENT.add(2.0)
        NULL_INSTRUMENT.observe(3.0)
        assert not hasattr(NULL_INSTRUMENT, "__dict__")
