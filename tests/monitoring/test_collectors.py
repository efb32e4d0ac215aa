import pytest

from repro.errors import ConfigurationError
from repro.monitoring import Gauge, PeriodicCollector, TimeSeriesStore, sar_gauges
from repro.monitoring.collectors import SAR_VARIABLES
from repro.simulator import Engine


class TestPeriodicCollector:
    def make(self, interval=10.0):
        engine = Engine()
        store = TimeSeriesStore()
        state = {"value": 0.0}
        gauges = [Gauge("x", lambda: state["value"])]
        collector = PeriodicCollector(engine, store, gauges, interval=interval)
        return engine, store, state, collector

    def test_samples_at_interval(self):
        engine, store, _, collector = self.make(interval=10.0)
        collector.start()
        engine.run(until=45.0)
        assert len(store.series("x")) == 5  # t = 0, 10, 20, 30, 40

    def test_values_track_gauge(self):
        engine, store, state, collector = self.make()
        collector.start()
        engine.schedule(15.0, lambda: state.update(value=7.0))
        engine.run(until=35.0)
        assert store.series("x").value_at(25.0) == 7.0
        assert store.series("x").value_at(5.0) == 0.0

    def test_stop_halts_sampling(self):
        engine, store, _, collector = self.make(interval=5.0)
        collector.start()
        engine.schedule(12.0, collector.stop)
        engine.run(until=100.0)
        assert len(store.series("x")) == 3

    def test_add_gauge_at_runtime(self):
        engine, store, _, collector = self.make(interval=10.0)
        collector.start()
        engine.schedule(15.0, lambda: collector.add_gauge(Gauge("y", lambda: 1.0)))
        engine.run(until=45.0)
        assert len(store.series("y")) == 3  # sampled at 20, 30, 40

    def test_rejects_bad_interval(self):
        engine = Engine()
        with pytest.raises(ConfigurationError):
            PeriodicCollector(engine, TimeSeriesStore(), [], interval=0.0)

    def test_stop_then_start_keeps_one_loop(self):
        engine, store, _, collector = self.make(interval=10.0)
        collector.start()

        def restart():
            collector.stop()
            collector.start()

        engine.schedule(25.0, restart)
        engine.run(until=100.0)
        times = store.series("x").times.tolist()
        # 0, 10, 20, then the new loop alone: 25, 35, ..., 95.
        assert times == [0.0, 10.0, 20.0, *range(25, 100, 10)]
        assert collector.samples_taken == 11

    def test_start_idempotent(self):
        engine, store, _, collector = self.make(interval=10.0)
        collector.start()
        collector.start()
        engine.run(until=25.0)
        assert len(store.series("x")) == 3  # not doubled


class TestSarGauges:
    def test_covers_standard_variables(self):
        gauges = sar_gauges(lambda name: 42.0)
        assert {g.variable for g in gauges} == set(SAR_VARIABLES)
        assert all(g.read() == 42.0 for g in gauges)

    def test_reader_gets_variable_name(self):
        seen = []
        gauges = sar_gauges(lambda name: seen.append(name) or 0.0)
        for gauge in gauges:
            gauge.read()
        assert set(seen) == set(SAR_VARIABLES)
