"""Generator-based simulation processes.

A process is a Python generator that yields what it is waiting for:

- ``yield Timeout(d)``            -- sleep for ``d`` time units,
- ``yield signal``                -- wait until ``signal.trigger()``.

The value sent back into the generator is the payload of the wake-up (the
signal's trigger payload, or ``None`` after a timeout).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import SimulationError
from repro.simulator.events import Signal, Timeout


class Process:
    """Couples a generator to an :class:`~repro.simulator.engine.Engine`."""

    def __init__(self, engine: Any, generator: Generator, name: str = "") -> None:
        self.engine = engine
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self.finished = False
        self.result: Any = None
        self.completion = Signal(f"{self.name}.completion")

    def start(self) -> None:
        """Schedule the first advance at the current time."""
        self.engine.schedule(0.0, lambda: self.resume(None))

    def resume(self, payload: Any) -> None:
        """Advance the generator, dispatching on what it yields next."""
        if self.finished:
            return
        try:
            yielded = self.generator.send(payload)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.completion.trigger(stop.value)
            return
        self._dispatch(yielded)

    def _dispatch(self, yielded: Any) -> None:
        if isinstance(yielded, Timeout):
            self.engine.schedule(yielded.delay, lambda: self.resume(None))
        elif isinstance(yielded, Signal):
            yielded._register(self, self.engine)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded an unsupported object: {yielded!r}"
            )

    def interrupt(self) -> None:
        """Terminate the process by closing its generator."""
        if self.finished:
            return
        self.generator.close()
        self.finished = True
        self.completion.trigger(None)

    def __repr__(self) -> str:
        status = "finished" if self.finished else "active"
        return f"Process({self.name!r}, {status})"
