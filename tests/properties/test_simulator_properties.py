"""Hypothesis property tests for the DES engine and SLA checker."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import Engine, Timeout
from repro.telecom import SLAChecker


def _key(event):
    return (event.time, event.priority, event.seq)


class _Recorder:
    """Schedules a generated plan and checks every firing as it happens.

    Each firing event must be the smallest ``(time, priority, seq)`` of
    the events still live (scheduled, not fired, not cancelled) at that
    moment.  Callbacks schedule and cancel further events.
    """

    def __init__(self, engine):
        self.engine = engine
        self.scheduled = []
        self.live = {}
        self.fired = []
        self.top = []

    def schedule(self, delay, priority, cancel, children=(), victim=None):
        box = []
        event = self.engine.schedule(
            float(delay), lambda: self._fire(box[0], children, victim), priority
        )
        box.append(event)
        self.scheduled.append(event)
        self.live[event.seq] = event
        if cancel:
            self.cancel(event)
        return event

    def cancel(self, event):
        event.cancel()
        self.live.pop(event.seq, None)

    def _fire(self, event, children, victim):
        assert not event.cancelled
        assert _key(event) == min(map(_key, self.live.values()))
        assert self.engine.now == event.time
        del self.live[event.seq]
        self.fired.append(_key(event))
        for delay, priority, cancel in children:
            self.schedule(delay, priority, cancel)
        if victim is not None and victim < len(self.top):
            target = self.top[victim]
            if target.seq in self.live:
                self.cancel(target)


# (delay, priority, cancelled at once); small ranges make many ties.
_leaf = st.tuples(st.integers(0, 3), st.integers(-1, 1), st.booleans())
_plans = st.lists(
    st.tuples(
        st.integers(0, 6),
        st.integers(-1, 1),
        st.booleans(),
        st.lists(_leaf, max_size=3),  # scheduled from the callback
        st.none() | st.integers(0, 24),  # top-level event it cancels
    ),
    min_size=1,
    max_size=25,
)


def _schedule_plan(plan):
    engine = Engine()
    recorder = _Recorder(engine)
    for time, priority, cancel, children, victim in plan:
        recorder.top.append(
            recorder.schedule(time, priority, cancel, children, victim)
        )
    # Cancelled entries stay queued until popped.
    assert engine.pending_events == len(plan)
    return engine, recorder


class TestEngineProperties:
    @given(st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_events_fire_in_nondecreasing_time_order(self, delays):
        engine = Engine()
        fired = []
        for delay in delays:
            engine.schedule(delay, lambda: fired.append(engine.now))
        engine.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(st.floats(0.01, 100.0, allow_nan=False), min_size=1, max_size=20)
    )
    @settings(max_examples=50, deadline=None)
    def test_process_timeouts_accumulate_exactly(self, delays):
        engine = Engine()
        finish = []

        def proc():
            for delay in delays:
                yield Timeout(delay)
            finish.append(engine.now)

        engine.process(proc())
        engine.run()
        assert abs(finish[0] - sum(delays)) < 1e-6

    @given(_plans)
    @settings(max_examples=150, deadline=None)
    def test_fires_in_key_order_skipping_cancelled(self, plan):
        engine, recorder = _schedule_plan(plan)
        engine.run()
        assert recorder.live == {}
        assert engine.pending_events == 0
        fired = {key[2] for key in recorder.fired}
        assert fired == {e.seq for e in recorder.scheduled if not e.cancelled}
        assert engine.processed_events == len(recorder.fired)

    @given(_plans, st.integers(0, 7), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_run_until_stops_at_the_bound(self, plan, bound, on_tick):
        until = bound if on_tick else bound + 0.5
        engine, recorder = _schedule_plan(plan)
        assert engine.run(until=until) == until
        assert all(key[0] <= until for key in recorder.fired)
        assert all(e.time > until for e in recorder.live.values())
        # Cancelled heads are popped up to the first live event past the
        # bound; everything from that event on stays queued.
        if recorder.live:
            first = min(map(_key, recorder.live.values()))
            queued = sum(_key(e) >= first for e in recorder.scheduled)
        else:
            queued = 0
        assert engine.pending_events == queued
        engine.run()
        assert recorder.live == {}

    @given(_plans, st.integers(0, 30))
    @settings(max_examples=150, deadline=None)
    def test_max_events_counts_fired_events(self, plan, limit):
        engine, recorder = _schedule_plan(plan)
        engine.run(max_events=limit)
        assert len(recorder.fired) <= limit
        if len(recorder.fired) < limit:
            assert recorder.live == {}
        elif recorder.fired:
            assert engine.now == recorder.fired[-1][0]
        engine.run()
        assert recorder.live == {}

    @given(st.floats(0.0, 1e5, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_run_until_never_overshoots(self, until):
        engine = Engine()
        engine.schedule(until + 1.0, lambda: None)
        final = engine.run(until=until)
        assert final == until
        assert engine.now == until


class TestSLAProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 10_000), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_window_accounting_conserves_requests(self, batches):
        checker = SLAChecker(window=300.0)
        time = 0.0
        total_requests = 0
        total_violations = 0
        for count, violation_fraction in batches:
            violations = int(count * violation_fraction)
            checker.record_batch(time, count, violations)
            total_requests += count
            total_violations += violations
            time += 100.0
        checker.flush(time + 300.0)
        assert sum(w.total_requests for w in checker.windows) == total_requests
        assert sum(w.violations for w in checker.windows) == total_violations

    @given(
        st.lists(
            st.tuples(st.integers(0, 10_000), st.floats(0.0, 1.0)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_availability_always_in_unit_interval(self, batches):
        checker = SLAChecker(window=300.0)
        time = 0.0
        for count, violation_fraction in batches:
            checker.record_batch(time, count, int(count * violation_fraction))
            time += 150.0
        checker.flush(time + 300.0)
        for _, availability in checker.availability_series():
            assert 0.0 <= availability <= 1.0
        assert 0.0 <= checker.overall_availability() <= 1.0

    @given(st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_windows_are_contiguous(self, times):
        checker = SLAChecker(window=100.0)
        for t in sorted(times):
            checker.record_batch(t, 1, 0)
        checker.flush(max(times) + 200.0)
        for prev, cur in zip(checker.windows, checker.windows[1:], strict=False):
            assert cur.start == prev.end
