"""The discrete-event simulation engine: clock plus event queue."""

from __future__ import annotations

import copyreg
import heapq
import io
import math
import pickle
from typing import Callable, Collection, TypeVar

from repro.errors import SimulationError
from repro.simulator.events import Event

T = TypeVar("T")


class Engine:
    """Event queue with a simulated clock.

    Everything that happens in a simulation is a callback fired at a
    simulated time.  A periodic activity is a method that does its work
    and then schedules its own next firing::

        engine = Engine()

        def tick():
            print("tick at", engine.now)
            engine.schedule(5.0, tick)

        engine.schedule(0.0, tick)
        engine.run(until=100.0)

    :class:`~repro.simulator.events.Wakeup` keeps such a loop single when
    it can be stopped and started again.

    :func:`copy_simulation` copies a simulation mid-run, engine and all,
    when its callbacks are bound methods of picklable objects.
    """

    # ``__weakref__``: perfbench's tracer keys engines by weak reference.
    __slots__ = (
        "_now",
        "_queue",
        "_seq",
        "_running",
        "processed_events",
        "__weakref__",
    )

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        # Heap of ``(time, priority, seq, event)``: tuples compare in C and
        # ``seq`` is unique, so the event itself is never compared.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0
        self._running = False
        self.processed_events = 0

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, priority)

    def schedule_at(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})"
            )
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback)
        heapq.heappush(self._queue, (time, priority, seq, event))
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        while self._queue:
            time, _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = time
            self.processed_events += 1
            event.callback()
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run events until the queue empties, the clock passes ``until``,
        or ``max_events`` have fired.  Returns the final clock value.

        When stopping at ``until``, the clock is advanced exactly to
        ``until`` (events beyond it stay queued).
        """
        if self._running:
            raise SimulationError("engine is already running (no re-entrant run)")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        bound = math.inf if until is None else until
        limit = math.inf if max_events is None else max_events
        fired = 0
        try:
            while queue:
                if fired >= limit:
                    break
                entry = pop(queue)
                event = entry[3]
                if event.cancelled:
                    continue
                time = entry[0]
                if time > bound:
                    # Keys are unique, so re-pushing keeps the firing order.
                    heapq.heappush(queue, entry)
                    self._now = until
                    break
                self._now = time
                self.processed_events += 1
                event.callback()
                fired += 1
            else:
                if until is not None and self._now < until:
                    self._now = until
        finally:
            self._running = False
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)

    def __repr__(self) -> str:
        return f"Engine(now={self._now}, pending={len(self._queue)})"


def copy_simulation(state: T, leave_out: Collection[object] = ()) -> T:
    """A copy of ``state``, a simulation or part of one, by pickle round trip.

    ``state`` may be copied mid-run, from inside one of its engine's
    events: each copied engine is not running, and firing its queue
    fires the same events in the same order as the original's.  The copy
    shares no mutable object with ``state``.

    The pending events whose callback is a method of an object in
    ``leave_out`` are not copied, and neither is any object of those
    objects' types: reaching one fails the copy, as does anything that
    does not pickle (a closure, a generator).  A failed copy raises
    :class:`SimulationError`.
    """
    owners = {id(owner) for owner in leave_out}

    def engine_without_owners(engine: Engine):
        queue = [
            entry
            for entry in engine._queue
            if id(getattr(entry[3].callback, "__self__", None)) not in owners
        ]
        heapq.heapify(queue)
        fields = {
            "_now": engine._now,
            "_queue": queue,
            "_seq": engine._seq,
            # A copy made inside a callback is not inside the original's loop.
            "_running": False,
            "processed_events": engine.processed_events,
        }
        return copyreg.__newobj__, (Engine,), (None, fields)

    def refuse(obj: object):
        raise pickle.PicklingError(f"a {type(obj).__name__} is left out")

    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = {
        **copyreg.dispatch_table,
        **{type(owner): refuse for owner in leave_out},
        Engine: engine_without_owners,
    }
    try:
        pickler.dump(state)
    except Exception as exc:  # pickle raises several types for one failure
        raise SimulationError(f"cannot copy the simulation: {exc}") from exc
    return pickle.loads(buffer.getvalue())
