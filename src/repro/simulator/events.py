"""Event primitives for the discrete-event engine.

:class:`Event` is the handle :meth:`Engine.schedule` returns (the engine
queues it as ``(time, priority, seq, event)``); user code rarely
constructs it directly.  :class:`Wakeup` keeps the pending firing of one
periodic loop, so a stopped loop that is started again runs once, not
twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.simulator.engine import Engine


@dataclass(order=True, slots=True)
class Event:
    """An entry in the engine's event queue.

    Ordering is by ``(time, priority, seq)`` so simultaneous events fire in
    deterministic (priority, then insertion) order.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


class Wakeup:
    """The pending firing of one periodic loop.

    A periodic loop is a method that runs its body and then schedules its
    own next firing through :meth:`after`.  :meth:`start` schedules the
    first firing at delay 0, on the engine later firings use, and cancels
    the firing an earlier start left pending.  So a loop that is stopped
    and started again before its next wake-up goes on as one loop: the
    superseded loop never fires again, neither its body nor its clean-up,
    and the new loop takes over the state it leaves behind.
    """

    __slots__ = ("engine", "event")

    def __init__(self) -> None:
        self.engine: Engine | None = None
        self.event: Event | None = None

    def start(self, engine: Engine, callback: Callable[[], None]) -> None:
        """Supersede any pending firing; fire ``callback`` on ``engine`` now."""
        if self.event is not None:
            self.event.cancel()
        self.engine = engine
        self.event = engine.schedule(0.0, callback)

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule the loop's next firing ``delay`` from now."""
        self.event = self.engine.schedule(delay, callback)
