"""The assembled Service Control Point simulator.

Architecture (mirroring the case study's description): protocol frontends
(RADIUS / SS7 / IP), a pool of replicated service-logic containers behind a
load balancer, and a database tier.  The performance model is evaluated in
fixed ticks: per tick the workload model yields Poisson arrival counts,
each tier contributes a stretched service time, the end-to-end response
time distribution is log-normal around that mean, and deadline violations
are drawn binomially.  Violation counts feed the Eq. 2 SLA checker, whose
window breaches are the system's (performance) failures.

Countermeasure hooks -- restart, clean-up, admission control, load
migration -- are the interface the :mod:`repro.actions` package drives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.detectors import TimingCheck
from repro.monitoring.collectors import Gauge
from repro.monitoring.logbook import ErrorLog, FailureLog
from repro.simulator.engine import Engine
from repro.simulator.random_streams import RandomStreams
from repro.telecom.aging import NaturalAgingProcess
from repro.telecom.components import Component, Tier
from repro.telecom.sla import SLAChecker
from repro.telecom.workload import (
    Protocol,
    WorkloadConfig,
    WorkloadModel,
)

_SQRT2 = math.sqrt(2.0)


# ----------------------------------------------------------------------
# Container reductions of the system gauges
# ----------------------------------------------------------------------
# A numpy reduction costs microseconds of call overhead on four values,
# and every MEA cycle reads these gauges.  The plain-Python forms give
# numpy's results bit for bit, so sampled series and decisions match it.


def numpy_sum(values: list[float]) -> float:
    """``float(np.sum(values))`` in plain Python, bit for bit.

    numpy adds the pairwise sum of the values to a +0.0 start, so
    ``numpy_sum([-0.0])`` is ``0.0``.  The pairwise sum adds fewer than 8
    values left to right; 8 to 128 values in eight interleaved partial
    sums combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the
    values past the last full block of 8; more values as the sum of two
    halves split at a multiple of 8.
    """
    return float(0.0 + _pairwise_sum(values, 0, len(values)))


def _pairwise_sum(values: list[float], start: int, n: int) -> float:
    if n < 8:
        total = 0.0
        for i in range(start, start + n):
            total += values[i]
        return total
    if n <= 128:
        r = list(values[start : start + 8])
        blocks_end = start + n - n % 8
        for i in range(start + 8, blocks_end, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(blocks_end, start + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(values, start, half) + _pairwise_sum(
        values, start + half, n - half
    )


def numpy_mean(values: list[float]) -> float:
    """``float(np.mean(values))`` in plain Python: the sum over the count."""
    return numpy_sum(values) / len(values)


def numpy_max(values: list[float]) -> float:
    """``float(np.max(values))`` in plain Python.

    NaN propagates (builtin ``max`` would skip it), and of two equal
    values the later wins, so ``numpy_max([0.0, -0.0])`` is ``-0.0``.
    numpy's vectorized loops may return either zero when +0.0 and -0.0
    both attain the maximum; no gauge reads a negative zero.
    """
    best = values[0]
    for value in values:
        if math.isnan(best):
            break
        if not best > value:  # value >= best, or value is NaN
            best = value
    return float(best)


@dataclass(frozen=True)
class SCPConfig:
    """Configuration of the simulated SCP."""

    n_containers: int = 4
    tick: float = 5.0
    # Nominal per-request service times per tier (seconds).
    frontend_service: float = 0.005
    container_service: float = 0.020
    db_service: float = 0.010
    # Capacities (parallel workers per component).
    frontend_capacity: int = 8
    container_capacity: int = 10
    db_capacity: int = 16
    # Memory provisioning (MB).
    frontend_memory: float = 2_048.0
    container_memory: float = 4_096.0
    db_memory: float = 8_192.0
    # Response-time dispersion (log-normal sigma).
    rt_sigma: float = 0.35
    # Fraction of requests touching the database.
    db_visit_prob: float = 0.7
    # SLA (Eq. 2).
    sla_window: float = 300.0
    required_availability: float = 0.9999
    deadline: float = 0.250
    # Natural aging.
    enable_aging: bool = True
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)

    def __post_init__(self) -> None:
        if self.n_containers < 1:
            raise ConfigurationError("need at least one container")
        if self.tick <= 0:
            raise ConfigurationError("tick must be positive")
        if not 0 <= self.db_visit_prob <= 1:
            raise ConfigurationError("db_visit_prob must be in [0, 1]")


class SCPSystem:
    """The simulated Service Control Point."""

    def __init__(
        self,
        engine: Engine,
        streams: RandomStreams,
        config: SCPConfig | None = None,
    ) -> None:
        self.engine = engine
        self.streams = streams
        self.config = config or SCPConfig()
        self.error_log = ErrorLog()
        self.failure_log = FailureLog()
        self.workload = WorkloadModel(self.config.workload, streams.get("workload"))
        self.sla = SLAChecker(
            window=self.config.sla_window,
            required_availability=self.config.required_availability,
            deadline=self.config.deadline,
            on_failure=self.failure_log.report,
        )
        self._rt_rng = streams.get("response-times")
        self._timing_check = TimingCheck("scp", deadline=self.config.deadline)

        # Build the component inventory.
        self.frontends: dict[Protocol, Component] = {
            protocol: self._make_component(
                f"frontend-{protocol.value}",
                Tier.FRONTEND,
                self.config.frontend_capacity,
                self.config.frontend_service,
                self.config.frontend_memory,
            )
            for protocol in Protocol
        }
        self.containers: list[Component] = [
            self._make_component(
                f"container-{i}",
                Tier.SERVICE_LOGIC,
                self.config.container_capacity,
                self.config.container_service,
                self.config.container_memory,
            )
            for i in range(self.config.n_containers)
        ]
        self.database = self._make_component(
            "database",
            Tier.DATABASE,
            self.config.db_capacity,
            self.config.db_service,
            self.config.db_memory,
        )
        self._frontends = tuple(self.frontends[p] for p in Protocol)
        self._components = (*self._frontends, *self.containers, self.database)
        # Whether a component may be restarting (see ``_finish_restarts``).
        self._restarting = False
        # Load-balancer weights over containers (normalized on use).
        self.weights: dict[str, float] = {c.name: 1.0 for c in self.containers}
        # (up containers, all weights, normalized array, as list).
        self._weight_cache: tuple[list, dict, np.ndarray, list[float]] | None = None
        # Admission control: fraction of arrivals accepted.
        self.admission_fraction = 1.0

        # Last-tick aggregate telemetry.
        self.last_request_rate = 0.0
        self.last_mean_rt = 0.0
        self.last_violation_prob = 0.0
        self.rejected_requests = 0
        self.ticks_run = 0
        self._log_deadline = math.log(self.config.deadline)

        self._aging: list[NaturalAgingProcess] = []
        self._started = False

    def _make_component(
        self,
        name: str,
        tier: Tier,
        capacity: int,
        service_time: float,
        memory_mb: float,
    ) -> Component:
        component = Component(
            name=name,
            tier=tier,
            capacity=capacity,
            service_time=service_time,
            memory_mb=memory_mb,
            error_sink=self.error_log.report,
        )
        component.bind_clock(lambda: self.engine.now)
        component.on_restart = self._restart_begun
        return component

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Launch the tick loop (and aging processes); idempotent."""
        if self._started:
            return
        self._started = True
        if self.config.enable_aging:
            for component in self.all_components():
                aging = NaturalAgingProcess(
                    component, self.streams.get(f"aging:{component.name}")
                )
                aging.start(self.engine)
                self._aging.append(aging)
        self.engine.schedule(0.0, self._tick)

    def _tick(self) -> None:
        self._do_tick()
        self.engine.schedule(self.config.tick, self._tick)

    def all_components(self) -> list[Component]:
        return list(self._components)

    def component(self, name: str) -> Component:
        for candidate in self.all_components():
            if candidate.name == name:
                return candidate
        raise ConfigurationError(f"unknown component {name!r}")

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------

    def _do_tick(self) -> None:
        # Must stay bit-identical to the reference tick the tests keep
        # (tests/telecom/tick_reference.py): the same RNG draws and float
        # operations in the same order -- ``math``, not numpy ufuncs, and
        # builtin ``sum()``, which is compensated on Python 3.12.
        now = self.engine.now
        config = self.config
        dt = config.tick
        rng = self._rt_rng
        if self._restarting:
            self._finish_restarts(now)

        workload = self.workload
        counts = workload.arrival_counts(now, dt)
        total = sum(counts)
        admitted = total
        if self.admission_fraction < 1.0 and total > 0:
            admitted = int(rng.binomial(total, self.admission_fraction))
            self.rejected_requests += total - admitted
        self.last_request_rate = admitted / dt

        if admitted == 0:
            self.sla.record_batch(now, 0, 0)
            self.ticks_run += 1
            return

        # Frontend tier: protocol split drives each frontend's stretch.
        scale = admitted / total
        protocol_counts = workload.protocol_counts(counts)
        if admitted != total:
            # With everything admitted, ``round(n * 1.0)`` is ``n``.
            protocol_counts = [round(n * scale) for n in protocol_counts]
        frontend_total = sum(protocol_counts) or 1
        frontend_time = 0.0
        for i, frontend in enumerate(self._frontends):
            n = protocol_counts[i]
            stretch = frontend.stretch_factor(n, dt)
            frontend_time += n / frontend_total * frontend.service_time * stretch

        # Database tier (shared).
        database = self.database
        db_visit_prob = config.db_visit_prob
        db_stretch = database.stretch_factor(admitted * db_visit_prob, dt)
        db_time = db_visit_prob * database.service_time * db_stretch

        # Container tier: split admitted demand by load-balancer weights
        # over components that are actually up.
        demand = workload.demand_of(counts) * scale
        up = self.containers
        if self._restarting:
            up = [c for c in up if c.restarting_until is None]
        violations = 0
        mean_rt_acc = 0.0
        if not up:
            # Whole service-logic tier down: every request fails its deadline.
            violations = admitted
            mean_rt_acc = config.deadline * 4
            self.last_violation_prob = 1.0
        else:
            weights, weight_list = self._normalized_weights(up)
            request_split = rng.multinomial(admitted, weights).tolist()
            binomial = rng.binomial
            log_deadline = self._log_deadline
            rt_sigma = config.rt_sigma
            prob_acc = 0.0
            for i, component in enumerate(up):
                n_requests, weight = request_split[i], weight_list[i]
                stretch = component.stretch_factor(demand * weight, dt)
                mean_rt = frontend_time + component.service_time * stretch + db_time
                # P(RT > deadline) for a log-normal RT around ``mean_rt``:
                # the survival function of the standard normal.
                if mean_rt <= 0:
                    p_violate = 0.0
                else:
                    z = (log_deadline - math.log(mean_rt)) / rt_sigma
                    p_violate = 0.5 * math.erfc(z / _SQRT2)
                if n_requests > 0:
                    violations += int(binomial(n_requests, p_violate))
                mean_rt_acc += weight * mean_rt
                prob_acc += weight * p_violate
            self.last_violation_prob = prob_acc
        self.last_mean_rt = mean_rt_acc

        # A timing check on observed latency reports detected errors.
        if self.last_violation_prob > 5e-5 and rng.random() < min(
            800 * self.last_violation_prob, 0.5
        ):
            worst = max(self.containers, key=lambda c: c.last_stretch)
            record = self._timing_check.check(
                now, self.last_mean_rt * math.exp(rng.normal(0.3, 0.2))
            )
            if record is not None:
                worst.emit_error(record.message_id, None, severity=2)

        self.sla.record_batch(now, admitted, violations)
        self.ticks_run += 1

    def _restart_begun(self) -> None:
        self._restarting = True

    def _finish_restarts(self, now: float) -> None:
        """Bring back every component whose restart is due.  The tick skips
        this scan and the up filter until ``Component.begin_restart``,
        however called, reports a restart through ``_restart_begun``."""
        restarting = False
        for component in self._components:
            if component.restarting_until is not None:
                component.finish_restart_if_due(now)
                if component.restarting_until is not None:
                    restarting = True
        self._restarting = restarting

    def _normalized_weights(
        self, up: list[Component]
    ) -> tuple[np.ndarray, list[float]]:
        """Load-balancer weights over ``up``, normalized to sum to 1.

        Recomputed only when the up set or a weight changed.
        """
        cached = self._weight_cache
        if cached is None or cached[0] != up or cached[1] != self.weights:
            weights = np.array([max(self.weights[c.name], 0.0) for c in up])
            if weights.sum() <= 0:
                weights = np.ones(len(up))
            weights = weights / weights.sum()
            cached = (up, dict(self.weights), weights, weights.tolist())
            self._weight_cache = cached
        return cached[2], cached[3]

    # ------------------------------------------------------------------
    # Monitoring surface
    # ------------------------------------------------------------------

    def system_gauges(self) -> list[Gauge]:
        """Aggregate, SAR-flavoured system variables."""
        return [
            Gauge("request_rate", lambda: self.last_request_rate),
            Gauge("response_time_ms", lambda: self.last_mean_rt * 1000.0),
            Gauge("violation_prob", lambda: self.last_violation_prob),
            Gauge(
                "cpu_utilization",
                lambda: numpy_mean([c.utilization for c in self.containers]),
            ),
            Gauge(
                "memory_free_mb",
                lambda: numpy_sum([c.memory_free_mb for c in self.containers]),
            ),
            Gauge(
                "swap_activity",
                lambda: numpy_max([c.swap_activity for c in self.containers]),
            ),
            Gauge(
                "max_stretch",
                lambda: numpy_max([c.last_stretch for c in self.containers]),
            ),
            Gauge("db_utilization", lambda: self.database.utilization),
            Gauge(
                "error_rate",
                lambda: self.error_log.rate(
                    max(self.engine.now - 300.0, 0.0), self.engine.now + 1e-9
                ),
            ),
        ]

    def all_gauges(self) -> list[Gauge]:
        """System gauges plus per-component gauges (prefixed)."""
        gauges = list(self.system_gauges())
        for component in self.all_components():
            for gauge in component.gauges():
                gauges.append(
                    Gauge(f"{component.name}.{gauge.variable}", gauge.read)
                )
        return gauges

    # ------------------------------------------------------------------
    # Countermeasure hooks (driven by repro.actions)
    # ------------------------------------------------------------------

    def restart_component(self, name: str, duration: float) -> None:
        """Take a component down for ``duration`` seconds, then rejuvenate."""
        self.component(name).begin_restart(self.engine.now, duration)

    def cleanup_component(self, name: str, effectiveness: float = 0.7) -> None:
        """On-line state clean-up (no downtime)."""
        self.component(name).cleanup(effectiveness)

    def set_admission_fraction(self, fraction: float) -> None:
        """Admission control: accept only ``fraction`` of new requests."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError("fraction must be in [0, 1]")
        self.admission_fraction = fraction

    def set_weight(self, name: str, weight: float) -> None:
        """Adjust the load-balancer weight of one container."""
        if name not in self.weights:
            raise ConfigurationError(f"unknown container {name!r}")
        if weight < 0:
            raise ConfigurationError("weight must be >= 0")
        self.weights[name] = weight

    def migrate_load(self, source: str, target: str, fraction: float = 1.0) -> None:
        """Shift ``fraction`` of a container's weight to another container."""
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError("fraction must be in [0, 1]")
        moved = self.weights[source] * fraction
        self.set_weight(source, self.weights[source] - moved)
        self.set_weight(target, self.weights[target] + moved)

    def __repr__(self) -> str:
        return (
            f"SCPSystem(containers={len(self.containers)}, "
            f"failures={len(self.failure_log)}, errors={len(self.error_log)})"
        )
