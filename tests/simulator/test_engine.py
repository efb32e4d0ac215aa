import pytest

from repro.errors import SimulationError
from repro.simulator import Engine


class TestScheduling:
    def test_schedule_fires_in_time_order(self):
        engine = Engine()
        log = []
        engine.schedule(5.0, lambda: log.append("b"))
        engine.schedule(1.0, lambda: log.append("a"))
        engine.schedule(9.0, lambda: log.append("c"))
        engine.run()
        assert log == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_priority_then_fifo_order(self):
        engine = Engine()
        log = []
        engine.schedule(1.0, lambda: log.append("second"), priority=1)
        engine.schedule(1.0, lambda: log.append("first"), priority=0)
        engine.schedule(1.0, lambda: log.append("third"), priority=1)
        engine.run()
        assert log == ["first", "second", "third"]

    def test_rejects_scheduling_into_past(self):
        engine = Engine(start_time=10.0)
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            engine.schedule_at(5.0, lambda: None)

    def test_cancelled_events_do_not_fire(self):
        engine = Engine()
        log = []
        event = engine.schedule(1.0, lambda: log.append("x"))
        event.cancel()
        engine.run()
        assert log == []

    def test_events_scheduled_during_run_execute(self):
        engine = Engine()
        log = []

        def first():
            log.append("first")
            engine.schedule(1.0, lambda: log.append("chained"))

        engine.schedule(1.0, first)
        engine.run()
        assert log == ["first", "chained"]
        assert engine.now == 2.0


class TestRun:
    def test_run_until_advances_clock_exactly(self):
        engine = Engine()
        engine.schedule(100.0, lambda: None)
        final = engine.run(until=50.0)
        assert final == 50.0
        assert engine.now == 50.0
        assert engine.pending_events == 1

    def test_run_until_past_all_events(self):
        engine = Engine()
        engine.schedule(3.0, lambda: None)
        final = engine.run(until=10.0)
        assert final == 10.0

    def test_max_events_limits_execution(self):
        engine = Engine()
        log = []
        for i in range(5):
            engine.schedule(float(i + 1), lambda i=i: log.append(i))
        engine.run(max_events=3)
        assert log == [0, 1, 2]

    def test_no_reentrant_run(self):
        engine = Engine()

        def nested():
            with pytest.raises(SimulationError):
                engine.run()

        engine.schedule(1.0, nested)
        engine.run()

    def test_processed_events_counter(self):
        engine = Engine()
        for i in range(4):
            engine.schedule(float(i), lambda: None)
        engine.run()
        assert engine.processed_events == 4

