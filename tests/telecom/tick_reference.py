"""Reference copy of the dict-based SCP tick: the oracle for
``test_tick_equivalence``.

The functions below are verbatim copies of the per-tick code the
simulator ran before the tick became straight-line scalar code:
``SCPSystem._do_tick`` with its ``_violation_probability`` helper, the
chained ``Component`` memory/swap properties and ``stretch_factor``, the
service-keyed ``WorkloadModel`` arrival methods, the event heap of
``Event`` objects ordered by their dataclass ``__lt__``, and the
collector sample going through ``TimeSeriesStore.record_many``.
Methods became module functions taking ``self`` and lost their
docstrings; their bodies are unchanged.  :func:`install` patches them
over the current implementation for one reference run.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.monitoring.collectors import PeriodicCollector
from repro.monitoring.timeseries import TimeSeries, TimeSeriesStore
from repro.simulator.engine import Engine
from repro.simulator.events import Event
from repro.telecom.components import (
    MAX_UTILIZATION,
    SWAP_PENALTY,
    SWAP_THRESHOLD,
    Component,
)
from repro.telecom.system import SCPSystem
from repro.telecom.workload import (
    SERVICE_DEMAND,
    SERVICE_PROTOCOL,
    Protocol,
    ServiceType,
    WorkloadModel,
)

# ----------------------------------------------------------------------
# Component
# ----------------------------------------------------------------------


class ReferenceComponent(Component):
    """A :class:`Component` whose performance model is the reference copy."""

    @property
    def memory_used_mb(self) -> float:
        return self.baseline_memory_mb + self.leaked_mb

    @property
    def memory_free_mb(self) -> float:
        return self.memory_mb - self.memory_used_mb

    @property
    def free_fraction(self) -> float:
        return self.memory_free_mb / self.memory_mb

    @property
    def swap_activity(self) -> float:
        """0 while memory is ample, ramps up as free memory vanishes."""
        if self.free_fraction >= SWAP_THRESHOLD:
            return 0.0
        return (SWAP_THRESHOLD - self.free_fraction) / SWAP_THRESHOLD

    @property
    def effective_capacity(self) -> float:
        if self.restarting_until is not None:
            return 1e-6  # effectively no capacity while restarting
        return max(self.capacity * (1.0 - self.degraded_fraction), 1e-6)

    def stretch_factor(self, offered_demand: float, dt: float) -> float:
        if dt <= 0:
            raise ConfigurationError("dt must be positive")
        arrival_rate = offered_demand / dt + self.background_load
        rho = arrival_rate * self.service_time / self.effective_capacity
        self.utilization = float(min(rho, 1.5))
        rho = min(rho, MAX_UTILIZATION)
        queueing = 1.0 / (1.0 - rho)
        swapping = 1.0 + SWAP_PENALTY * self.swap_activity
        retries = 1.0 + 0.8 * self.corruption
        self.last_stretch = float(queueing * swapping * retries)
        return self.last_stretch


_COMPONENT_MEMBERS = (
    "memory_used_mb",
    "memory_free_mb",
    "free_fraction",
    "swap_activity",
    "effective_capacity",
    "stretch_factor",
)

# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------


def arrivals(self, time: float, dt: float) -> dict[ServiceType, int]:
    expected_total = self.rate_at(time + dt / 2.0) * dt
    counts: dict[ServiceType, int] = {}
    for service, fraction in self.config.mix.items():
        counts[service] = int(self.rng.poisson(expected_total * fraction))
    return counts


def demand(self, counts: dict[ServiceType, int]) -> float:
    return sum(SERVICE_DEMAND[svc] * n for svc, n in counts.items())


def protocol_split(self, counts: dict[ServiceType, int]) -> dict[Protocol, int]:
    split: dict[Protocol, int] = {p: 0 for p in Protocol}
    for service, n in counts.items():
        split[SERVICE_PROTOCOL[service]] += n
    # A slice of all traffic arrives over plain IP management interfaces.
    ip_share = int(0.1 * sum(counts.values()))
    split[Protocol.IP] += ip_share
    return split


# ----------------------------------------------------------------------
# System
# ----------------------------------------------------------------------


def do_tick(self) -> None:
    now = self.engine.now
    dt = self.config.tick
    for component in self.all_components():
        component.finish_restart_if_due(now)

    counts = self.workload.arrivals(now, dt)
    total = sum(counts.values())
    admitted = total
    if self.admission_fraction < 1.0 and total > 0:
        admitted = int(self._rt_rng.binomial(total, self.admission_fraction))
        self.rejected_requests += total - admitted
    self.last_request_rate = admitted / dt

    if admitted == 0:
        self.sla.record_batch(now, 0, 0)
        self.ticks_run += 1
        return

    # Frontend tier: protocol split drives each frontend's stretch.
    scale = admitted / total
    protocol_counts = {
        p: int(round(n * scale))
        for p, n in self.workload.protocol_split(counts).items()
    }
    frontend_time = 0.0
    for protocol, n in protocol_counts.items():
        frontend = self.frontends[protocol]
        stretch = frontend.stretch_factor(n, dt)
        share = n / max(sum(protocol_counts.values()), 1)
        frontend_time += share * frontend.service_time * stretch

    # Database tier (shared).
    db_demand = admitted * self.config.db_visit_prob
    db_stretch = self.database.stretch_factor(db_demand, dt)
    db_time = self.config.db_visit_prob * self.database.service_time * db_stretch

    # Container tier: split admitted demand by load-balancer weights
    # over components that are actually up.
    demand = self.workload.demand(counts) * scale
    up = [c for c in self.containers if c.restarting_until is None]
    violations = 0
    mean_rt_acc = 0.0
    if not up:
        # Whole service-logic tier down: every request fails its deadline.
        violations = admitted
        mean_rt_acc = self.config.deadline * 4
        self.last_violation_prob = 1.0
    else:
        weights = np.array([max(self.weights[c.name], 0.0) for c in up])
        if weights.sum() <= 0:
            weights = np.ones(len(up))
        weights = weights / weights.sum()
        request_split = self._rt_rng.multinomial(admitted, weights)
        prob_acc = 0.0
        for component, n_requests, weight in zip(
            up, request_split, weights, strict=True
        ):
            stretch = component.stretch_factor(demand * weight, dt)
            mean_rt = (
                frontend_time + component.service_time * stretch + db_time
            )
            p_violate = self._violation_probability(mean_rt)
            if n_requests > 0:
                violations += int(self._rt_rng.binomial(n_requests, p_violate))
            mean_rt_acc += weight * mean_rt
            prob_acc += weight * p_violate
        self.last_violation_prob = prob_acc
    self.last_mean_rt = mean_rt_acc

    # A timing check on observed latency reports detected errors.
    if self.last_violation_prob > 5e-5 and self._rt_rng.random() < min(
        800 * self.last_violation_prob, 0.5
    ):
        worst = max(self.containers, key=lambda c: c.last_stretch)
        record = self._timing_check.check(
            now, self.last_mean_rt * math.exp(self._rt_rng.normal(0.3, 0.2))
        )
        if record is not None:
            worst.emit_error(record.message_id, None, severity=2)

    self.sla.record_batch(now, admitted, violations)
    self.ticks_run += 1


def violation_probability(self, mean_rt: float) -> float:
    """P(RT > deadline) for a log-normal RT around ``mean_rt``."""
    if mean_rt <= 0:
        return 0.0
    z = (math.log(self.config.deadline) - math.log(mean_rt)) / self.config.rt_sigma
    # Survival function of the standard normal.
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# ----------------------------------------------------------------------
# Engine: a heap of ``Event`` objects
# ----------------------------------------------------------------------


def schedule_at(self, time, callback, priority=0):
    if time < self._now:
        raise SimulationError(
            f"cannot schedule into the past (time={time}, now={self._now})"
        )
    event = Event(time=time, priority=priority, seq=self._seq, callback=callback)
    self._seq += 1
    heapq.heappush(self._queue, event)
    return event


def step(self) -> bool:
    while self._queue:
        event = heapq.heappop(self._queue)
        if event.cancelled:
            continue
        self._now = event.time
        self.processed_events += 1
        event.callback()
        return True
    return False


def run(self, until=None, max_events=None) -> float:
    if self._running:
        raise SimulationError("engine is already running (no re-entrant run)")
    self._running = True
    fired = 0
    try:
        while self._queue:
            if max_events is not None and fired >= max_events:
                break
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if until is not None and head.time > until:
                self._now = until
                break
            if not self.step():
                break
            fired += 1
        else:
            if until is not None and self._now < until:
                self._now = until
    finally:
        self._running = False
    return self._now


# ----------------------------------------------------------------------
# Monitoring
# ----------------------------------------------------------------------


def sample_once(self) -> dict[str, float]:
    values = {gauge.variable: float(gauge.read()) for gauge in self.gauges}
    self.store.record_many(self.engine.now, values)
    self.samples_taken += 1
    return values


def record_many(self, time: float, values: dict[str, float]) -> None:
    for variable, value in values.items():
        self.record(time, variable, value)


def series(self, variable: str) -> TimeSeries:
    if variable not in self._series:
        self._series[variable] = TimeSeries(variable)
    return self._series[variable]


def append(self, time: float, value: float) -> None:
    if self._times and time < self._times[-1]:
        raise ConfigurationError(
            f"samples must arrive in time order ({time} < {self._times[-1]})"
        )
    self._times.append(float(time))
    self._values.append(float(value))


def install(monkeypatch) -> None:
    """Patch the reference copies over the current implementation.

    Install before building the engine: the reference heap holds
    ``Event`` objects, not the current implementation's tuples.
    """
    for name in _COMPONENT_MEMBERS:
        monkeypatch.setattr(Component, name, ReferenceComponent.__dict__[name])
    monkeypatch.setattr(WorkloadModel, "arrivals", arrivals)
    monkeypatch.setattr(WorkloadModel, "demand", demand)
    monkeypatch.setattr(WorkloadModel, "protocol_split", protocol_split)
    monkeypatch.setattr(SCPSystem, "_do_tick", do_tick)
    monkeypatch.setattr(
        SCPSystem, "_violation_probability", violation_probability, raising=False
    )
    monkeypatch.setattr(Engine, "schedule_at", schedule_at)
    monkeypatch.setattr(Engine, "step", step)
    monkeypatch.setattr(Engine, "run", run)
    monkeypatch.setattr(PeriodicCollector, "sample_once", sample_once)
    monkeypatch.setattr(TimeSeriesStore, "record_many", record_many)
    monkeypatch.setattr(TimeSeriesStore, "series", series)
    monkeypatch.setattr(TimeSeries, "append", append)
