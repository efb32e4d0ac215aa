"""The discrete-event simulation engine: clock plus event queue."""

from __future__ import annotations

import heapq
import math
from typing import Callable

from repro.errors import SimulationError
from repro.simulator.events import Event


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
    """

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
