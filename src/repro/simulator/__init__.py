"""A compact discrete-event simulation (DES) engine.

This substrate underlies the telecom case-study system and the closed-loop
PFM experiments.  It provides:

- :class:`~repro.simulator.engine.Engine` -- event queue and clock,
- generator-based :class:`~repro.simulator.process.Process` coroutines that
  ``yield`` :class:`~repro.simulator.events.Timeout` or
  :class:`~repro.simulator.events.Signal` waits,
- :class:`~repro.simulator.random_streams.RandomStreams` -- named,
  reproducible random-number streams.
"""

from repro.simulator.engine import Engine
from repro.simulator.events import Event, Signal, Timeout
from repro.simulator.process import Process
from repro.simulator.random_streams import RandomStreams

__all__ = [
    "Engine",
    "Event",
    "Signal",
    "Timeout",
    "Process",
    "RandomStreams",
]
