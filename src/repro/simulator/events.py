"""Event primitives for the discrete-event engine.

Two things can sit in a process's ``yield``:

- :class:`Timeout` -- resume after a simulated delay,
- :class:`Signal` -- resume when another process triggers the signal.

:class:`Event` is the handle :meth:`Engine.schedule` returns (the engine
queues it as ``(time, priority, seq, event)``); user code rarely
constructs it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import SimulationError


@dataclass(order=True)
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


class Timeout:
    """Yielded by a process to sleep for ``delay`` simulated time units."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        self.delay = float(delay)

    def __repr__(self) -> str:
        return f"Timeout({self.delay})"


class Signal:
    """A broadcast condition processes can wait on.

    A process waits by ``value = yield signal``; another process wakes all
    waiters with :meth:`trigger`.  The triggered payload is delivered as the
    value of the ``yield`` expression.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: list[Any] = []  # Process instances
        self._engine: Any = None

    def _register(self, process: Any, engine: Any) -> None:
        self._waiters.append(process)
        self._engine = engine

    def trigger(self, payload: Any = None) -> int:
        """Wake all waiting processes; returns how many were woken."""
        if self._engine is None:
            # Nobody ever waited; nothing to do.
            count = len(self._waiters)
            self._waiters.clear()
            return count
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self._engine.schedule(0.0, lambda p=process: p.resume(payload))
        return len(waiters)

    @property
    def waiter_count(self) -> int:
        return len(self._waiters)

    def __repr__(self) -> str:
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"
