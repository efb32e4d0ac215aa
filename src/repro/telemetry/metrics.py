"""The PFM metrics registry: counters, gauges, and reservoir histograms.

Prometheus-shaped metric primitives over plain Python, keyed by
``(name, labels)``.  The registry hands out the same instrument for the
same key, so instrumented code can call
``registry.counter("mea_step_failures_total", step="monitor").inc()``
from a hot loop without holding references.

Histograms keep a fixed-size uniform reservoir (Vitter's algorithm R with
a name-seeded deterministic RNG), so quantile estimates stay O(1) memory
over arbitrarily long runs and identical across repeated runs of the same
workload.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ConfigurationError

#: Sorted ``(key, value)`` pairs -- the hashable form of a label dict.
LabelSet = tuple[tuple[str, str], ...]


def _labelset(labels: dict[str, object]) -> LabelSet:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    labels: LabelSet = ()
    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


@dataclass
class Gauge:
    """A value that goes up and down (last write wins)."""

    name: str
    labels: LabelSet = ()
    value: float = math.nan

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        base = 0.0 if math.isnan(self.value) else self.value
        self.value = base + float(delta)


@dataclass
class Histogram:
    """Streaming distribution summary with reservoir quantiles.

    Tracks exact ``count`` / ``sum`` / ``min`` / ``max`` and estimates
    quantiles from a uniform sample of at most ``reservoir_size``
    observations.  The reservoir RNG is seeded from the metric name, so a
    deterministic workload yields a deterministic snapshot.
    """

    name: str
    labels: LabelSet = ()
    reservoir_size: int = 256
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = -math.inf
    _reservoir: list[float] = field(default_factory=list)
    _rng: random.Random = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.reservoir_size < 1:
            raise ConfigurationError("reservoir_size must be >= 1")
        if self._rng is None:
            self._rng = random.Random(zlib.crc32(self.name.encode()))

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._reservoir) < self.reservoir_size:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.reservoir_size:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else math.nan

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram of the same series into this one.

        Counts, sums and extrema combine exactly; the reservoirs are
        pooled and, when over capacity, downsampled with an RNG seeded
        from the metric name and the combined count — so merging the same
        shard histograms in the same order always yields the same
        reservoir, regardless of which process produced each shard.
        """
        combined = self.count + other.count
        self.total += other.total
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)
        pooled = self._reservoir + other._reservoir
        if len(pooled) > self.reservoir_size:
            rng = random.Random(zlib.crc32(self.name.encode()) ^ combined)
            pooled = rng.sample(pooled, self.reservoir_size)
        self._reservoir = pooled
        self.count = combined

    def quantile(self, q: float) -> float:
        """Reservoir quantile estimate (linear interpolation)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError("quantile must be in [0, 1]")
        if not self._reservoir:
            return math.nan
        ordered = sorted(self._reservoir)
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class MetricsRegistry:
    """All instruments of one run, keyed by ``(name, labels)``.

    A name is bound to one instrument kind on first use; reusing it with a
    different kind is a configuration error (it would silently split the
    series in every exporter).
    """

    def __init__(self, reservoir_size: int = 256) -> None:
        self.reservoir_size = reservoir_size
        self._kinds: dict[str, type] = {}
        self._metrics: dict[tuple[str, LabelSet], object] = {}
        #: ``(kind, name, *label items in call order)`` -> instrument, for
        #: calls whose label values are all strings.  A hot loop asking
        #: for the same instrument again skips the sort and the ``str()``
        #: of every label; other values always resolve the long way, so
        #: ``x=1`` and ``x=True`` stay the distinct series "1" and "True".
        self._resolved: dict[tuple, object] = {}

    def _get(self, kind: type, name: str, labels: dict[str, object], **kwargs):
        call = (kind, name, *labels.items())
        try:
            metric = self._resolved.get(call)
        except TypeError:  # an unhashable label value
            metric = None
        if metric is not None:
            return metric
        bound = self._kinds.setdefault(name, kind)
        if bound is not kind:
            raise ConfigurationError(
                f"metric {name!r} already registered as {bound.__name__}"
            )
        key = (name, _labelset(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = kind(name=name, labels=key[1], **kwargs)
            self._metrics[key] = metric
        if all(type(value) is str for value in labels.values()):
            self._resolved[call] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(
            Histogram, name, labels, reservoir_size=self.reservoir_size
        )

    def __iter__(self) -> Iterator[object]:
        """Instruments in registration order (stable for exporters)."""
        return iter(self._metrics.values())

    def __len__(self) -> int:
        return len(self._metrics)

    def families(self) -> dict[str, list]:
        """Instruments grouped by metric name, preserving order."""
        grouped: dict[str, list] = {}
        for (name, _), metric in self._metrics.items():
            grouped.setdefault(name, []).append(metric)
        return grouped

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry into this one (fleet aggregation).

        Counters add, gauges take the incoming value (last merge wins,
        matching their last-write-wins semantics within a run), and
        histograms pool via :meth:`Histogram.merge`.  Merging per-shard
        registries in a deterministic shard order therefore yields a
        deterministic merged registry.
        """
        for (name, labels), metric in other._metrics.items():
            kind = type(metric)
            if kind is Counter:
                self._get(Counter, name, dict(labels)).inc(metric.value)
            elif kind is Gauge:
                if not math.isnan(metric.value):
                    self._get(Gauge, name, dict(labels)).set(metric.value)
            elif kind is Histogram:
                mine = self._get(
                    Histogram, name, dict(labels), reservoir_size=self.reservoir_size
                )
                mine.merge(metric)
            else:  # pragma: no cover - registry only hands out these kinds
                raise ConfigurationError(f"cannot merge metric kind {kind.__name__}")
        return self

    def to_state(self) -> list[dict]:
        """Lossless JSON-ready dump (unlike :meth:`snapshot`, mergeable).

        Preserves histogram reservoirs so registries round-trip through
        the shard ledger and still merge exactly.
        """
        state: list[dict] = []
        for (name, labels), metric in self._metrics.items():
            entry: dict[str, object] = {"name": name, "labels": [list(kv) for kv in labels]}
            if isinstance(metric, Counter):
                entry.update(kind="counter", value=metric.value)
            elif isinstance(metric, Gauge):
                entry.update(
                    kind="gauge",
                    value=None if math.isnan(metric.value) else metric.value,
                )
            else:
                entry.update(
                    kind="histogram",
                    count=metric.count,
                    total=metric.total,
                    min=metric.min if metric.count else None,
                    max=metric.max if metric.count else None,
                    reservoir=list(metric._reservoir),
                    reservoir_size=metric.reservoir_size,
                )
            state.append(entry)
        return state

    @classmethod
    def from_state(cls, state: list[dict]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_state` output."""
        registry = cls()
        for entry in state:
            labels = {k: v for k, v in entry.get("labels", [])}
            kind = entry["kind"]
            if kind == "counter":
                registry.counter(entry["name"], **labels).inc(entry["value"])
            elif kind == "gauge":
                if entry["value"] is not None:
                    registry.gauge(entry["name"], **labels).set(entry["value"])
                else:
                    registry.gauge(entry["name"], **labels)
            elif kind == "histogram":
                hist = registry._get(
                    Histogram,
                    entry["name"],
                    labels,
                    reservoir_size=entry.get("reservoir_size", 256),
                )
                hist.count = int(entry["count"])
                hist.total = float(entry["total"])
                hist.min = math.inf if entry["min"] is None else float(entry["min"])
                hist.max = -math.inf if entry["max"] is None else float(entry["max"])
                hist._reservoir = [float(v) for v in entry["reservoir"]]
            else:
                raise ConfigurationError(f"unknown metric kind {kind!r} in state")
        return registry

    def snapshot(self) -> dict[str, object]:
        """JSON-ready dump of every instrument's current state."""
        doc: dict[str, object] = {}
        for (name, labels), metric in self._metrics.items():
            key = name if not labels else (
                name + "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"
            )
            if isinstance(metric, Histogram):
                doc[key] = {
                    "count": metric.count,
                    "sum": metric.total,
                    "min": metric.min if metric.count else None,
                    "max": metric.max if metric.count else None,
                    "p50": metric.quantile(0.5),
                    "p90": metric.quantile(0.9),
                    "p99": metric.quantile(0.99),
                }
            else:
                doc[key] = metric.value  # type: ignore[union-attr]
        return doc


class _NullInstrument:
    """Shared no-op counter/gauge/histogram for disabled telemetry."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, delta: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


#: The singleton every disabled hub hands out -- no allocation per call.
NULL_INSTRUMENT = _NullInstrument()
