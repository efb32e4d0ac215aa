"""Spans: nested timing records over both clocks.

A span brackets one unit of work -- an MEA cycle, one monitor step, a
batched HSMM scoring call -- and records it against *two* clocks at once:

- **simulated time** (the DES engine's clock): how long the step took in
  the modeled world (zero for a synchronous MEA step), and
- **wall-clock time** (``time.perf_counter``): how long the Python
  actually ran, which is what profiling the hot paths cares about.

Spans nest: the hub keeps a stack, so a ``mea.monitor`` span opened while
``mea.cycle`` is active records the cycle span as its parent.  Finished
spans are published to the event bus as ``span`` events and fed into the
``span_wall_seconds`` / ``span_sim_seconds`` histograms, which is where
the in-situ wall-vs-sim accounting for the HSMM hot path comes from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

#: Span completion statuses.
OK = "ok"
ERROR = "error"


@dataclass
class Span:
    """One timed unit of work (mutable until closed by its context)."""

    name: str
    span_id: int
    parent_id: int | None
    sim_start: float
    wall_start: float
    attributes: dict[str, Any] = field(default_factory=dict)
    status: str = OK
    sim_end: float | None = None
    wall_end: float | None = None

    @property
    def finished(self) -> bool:
        return self.sim_end is not None

    @property
    def sim_duration(self) -> float:
        """Elapsed simulated seconds (0.0 until finished)."""
        return (self.sim_end - self.sim_start) if self.finished else 0.0

    @property
    def wall_duration(self) -> float:
        """Elapsed wall-clock seconds (0.0 until finished)."""
        if self.wall_end is None:
            return 0.0
        return self.wall_end - self.wall_start

    def annotate(self, **attributes: Any) -> "Span":
        """Attach attributes to the span (chains for with-statements)."""
        self.attributes.update(attributes)
        return self

    def to_fields(self) -> dict[str, Any]:
        """The flat field dict the ``span`` event carries."""
        fields: dict[str, Any] = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "sim_start": self.sim_start,
            "sim_duration": self.sim_duration,
            "wall_ms": self.wall_duration * 1e3,
            "status": self.status,
        }
        if self.attributes:
            fields["attrs"] = dict(self.attributes)
        return fields


class NullSpan:
    """The shared do-nothing span handed out by disabled hubs.

    Supports the same surface instrumented code touches (``annotate``,
    ``status`` assignment) so call sites need no enabled-check of their
    own, and is reused across all calls -- the disabled hot path never
    allocates.
    """

    __slots__ = ()

    status = OK

    def annotate(self, **attributes: Any) -> "NullSpan":
        return self

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def __setattr__(self, name: str, value: Any) -> None:
        # Silently accept `span.status = ...` from instrumented code.
        pass


#: Module-level singleton: ``hub.span(...)`` on a disabled hub returns
#: this exact object every time.
NULL_SPAN = NullSpan()
