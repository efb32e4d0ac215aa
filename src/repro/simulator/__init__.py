"""A compact discrete-event simulation (DES) engine.

This substrate underlies the telecom case-study system and the closed-loop
PFM experiments.  It provides:

- :class:`~repro.simulator.engine.Engine` -- event queue and clock; every
  activity is a callback fired at a simulated time, and a periodic
  activity is a method that schedules its own next firing,
- :class:`~repro.simulator.events.Wakeup` -- the pending firing of one
  such loop, so a loop stopped and started again runs once, not twice,
- :class:`~repro.simulator.random_streams.RandomStreams` -- named,
  reproducible random-number streams.
"""

from repro.simulator.engine import Engine
from repro.simulator.events import Event, Wakeup
from repro.simulator.random_streams import RandomStreams

__all__ = [
    "Engine",
    "Event",
    "Wakeup",
    "RandomStreams",
]
