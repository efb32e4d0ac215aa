"""Periodic collectors: sample gauges into a time-series store.

A :class:`Gauge` is a named zero-argument callable returning the current
value of one system variable; :class:`PeriodicCollector` is a simulation
process sampling all registered gauges at a fixed interval.
:func:`sar_gauges` names the variable set after the System Activity
Reporter data the paper's case study used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigurationError
from repro.monitoring.timeseries import TimeSeriesStore
from repro.simulator.engine import Engine
from repro.simulator.events import Timeout


@dataclass(frozen=True)
class Gauge:
    """A named probe for one monitored variable."""

    variable: str
    read: Callable[[], float]


#: Variable names mirroring the SAR data of the case study.
SAR_VARIABLES = (
    "cpu_utilization",
    "memory_used_mb",
    "memory_free_mb",
    "swap_activity",
    "queue_length",
    "request_rate",
    "response_time_ms",
    "semaphore_ops",
    "disk_io",
    "context_switches",
)


def sar_gauges(reader: Callable[[str], float]) -> list[Gauge]:
    """Build the standard SAR gauge set from a ``variable -> value`` reader."""
    return [
        Gauge(variable=name, read=(lambda n=name: reader(n)))
        for name in SAR_VARIABLES
    ]


class PeriodicCollector:
    """Samples gauges into a store at a fixed interval."""

    def __init__(
        self,
        engine: Engine,
        store: TimeSeriesStore,
        gauges: list[Gauge],
        interval: float = 60.0,
    ) -> None:
        if interval <= 0:
            raise ConfigurationError("sampling interval must be positive")
        self.engine = engine
        self.store = store
        self.gauges = list(gauges)
        self.interval = interval
        self.samples_taken = 0
        self._running = False
        # Each start() opens a new generation; a loop whose generation is
        # stale exits, so stop() then start() never leaves two loops.
        self._generation = 0
        # The gauges (and store) the probes below were resolved for.
        self._probed: tuple[TimeSeriesStore, list[Gauge]] | None = None
        self._reads: list[tuple[str, Callable[[], float]]] = []
        self._appends: list[Callable[[float, float], None]] = []

    def start(self) -> None:
        """Launch the sampling process (idempotent)."""
        if self._running:
            return
        self._running = True
        self._generation += 1
        self.engine.process(self._run(self._generation), name="collector")

    def stop(self) -> None:
        self._running = False

    def add_gauge(self, gauge: Gauge) -> None:
        """Plug in a new data source at runtime (blueprint requirement)."""
        self.gauges.append(gauge)

    def _resolve_probes(self) -> None:
        """Bind each gauge's read and each variable's series append."""
        store, gauges = self.store, list(self.gauges)
        self._reads = [(gauge.variable, gauge.read) for gauge in gauges]
        variables = dict.fromkeys(variable for variable, _ in self._reads)
        self._appends = [store.series(variable).append for variable in variables]
        self._probed = (store, gauges)

    def sample_once(self) -> dict[str, float]:
        """Take one sample of every gauge right now."""
        probed = self._probed
        if probed is None or probed[0] is not self.store or probed[1] != self.gauges:
            self._resolve_probes()
        # Read every gauge before appending any value, so a gauge that
        # raises records nothing for this sample.
        values = {variable: float(read()) for variable, read in self._reads}
        now = self.engine.now
        for append, value in zip(self._appends, values.values(), strict=True):
            append(now, value)
        self.samples_taken += 1
        return values

    def _run(self, generation: int):
        while self._running and generation == self._generation:
            self.sample_once()
            yield Timeout(self.interval)
