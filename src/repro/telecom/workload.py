"""Workload model: MOC / SMS / GPRS request streams.

The SCP "has to respond to a large variety of different service requests
regarding accounts, billing, etc. submitted to the system over various
protocols such as RADIUS, SS7, or IP".  The workload model produces
per-tick Poisson request counts for each service type with diurnal
modulation and weekly weekday/weekend structure.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError

DAY = 86_400.0
WEEK = 7 * DAY


class ServiceType(enum.Enum):
    """Service classes handled by the Service Control Functions."""

    MOC = "mobile-originated-call"
    SMS = "short-message-service"
    GPRS = "general-packet-radio-service"


class Protocol(enum.Enum):
    """Ingress protocols of the SCP."""

    RADIUS = "radius"
    SS7 = "ss7"
    IP = "ip"


#: Which protocol carries which service type (simplified mapping).
SERVICE_PROTOCOL = {
    ServiceType.MOC: Protocol.SS7,
    ServiceType.SMS: Protocol.SS7,
    ServiceType.GPRS: Protocol.RADIUS,
}

#: Position of :attr:`Protocol.IP` in :class:`Protocol` order.
_IP = list(Protocol).index(Protocol.IP)

#: Relative processing demand per service type (MOC is heaviest).
SERVICE_DEMAND = {
    ServiceType.MOC: 1.0,
    ServiceType.SMS: 0.6,
    ServiceType.GPRS: 0.8,
}


@dataclass(frozen=True)
class WorkloadConfig:
    """Arrival-process parameters.

    Attributes
    ----------
    base_rate:
        Mean total arrivals per second, averaged over the day.
    mix:
        Fraction of traffic per service type (must sum to 1).
    diurnal_amplitude:
        Relative day/night swing in [0, 1): rate(t) oscillates between
        ``base * (1 - a)`` and ``base * (1 + a)``.
    weekend_factor:
        Multiplier applied on days 5 and 6 of each week.
    peak_hour:
        Hour of day (0-24) at which the diurnal curve peaks.
    """

    base_rate: float = 120.0
    mix: dict[ServiceType, float] = field(
        default_factory=lambda: {
            ServiceType.MOC: 0.5,
            ServiceType.SMS: 0.3,
            ServiceType.GPRS: 0.2,
        }
    )
    diurnal_amplitude: float = 0.35
    weekend_factor: float = 0.7
    peak_hour: float = 14.0

    def __post_init__(self) -> None:
        if self.base_rate <= 0:
            raise ConfigurationError("base_rate must be positive")
        if not 0 <= self.diurnal_amplitude < 1:
            raise ConfigurationError("diurnal_amplitude must be in [0, 1)")
        if self.weekend_factor <= 0:
            raise ConfigurationError("weekend_factor must be positive")
        total = sum(self.mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ConfigurationError(f"service mix must sum to 1, got {total}")


class WorkloadModel:
    """Generates per-tick arrival counts from a :class:`WorkloadConfig`.

    The per-tick path works on plain lists: :meth:`arrival_counts` gives
    one count per service type in ``config.mix`` order, and
    :meth:`demand_of` / :meth:`protocol_counts` take such a list.  The
    service-keyed :meth:`arrivals`, :meth:`demand` and
    :meth:`protocol_split` are views over it; they read the services of
    the mix, in mix order, and count an absent service as zero.
    """

    def __init__(self, config: WorkloadConfig, rng: np.random.Generator) -> None:
        self.config = config
        self.rng = rng
        self._services = tuple(config.mix)
        self._fractions = tuple(config.mix.values())
        self._demands = tuple(SERVICE_DEMAND[s] for s in self._services)
        self._protocol_index = tuple(
            list(Protocol).index(SERVICE_PROTOCOL[s]) for s in self._services
        )

    def rate_at(self, time: float) -> float:
        """Instantaneous total arrival rate (requests/second) at ``time``."""
        hour = (time % DAY) / 3600.0
        phase = 2.0 * math.pi * (hour - self.config.peak_hour) / 24.0
        diurnal = 1.0 + self.config.diurnal_amplitude * math.cos(phase)
        day_of_week = int(time % WEEK // DAY)
        weekly = self.config.weekend_factor if day_of_week >= 5 else 1.0
        return self.config.base_rate * diurnal * weekly

    def arrival_counts(self, time: float, dt: float) -> list[int]:
        """Poisson arrival counts over ``[time, time+dt)``, in mix order."""
        expected_total = self.rate_at(time + dt / 2.0) * dt
        poisson = self.rng.poisson
        return [int(poisson(expected_total * f)) for f in self._fractions]

    def demand_of(self, counts: list[int]) -> float:
        """Total processing demand of mix-ordered counts (request-equivalents)."""
        return sum([d * n for d, n in zip(self._demands, counts, strict=True)])

    def protocol_counts(self, counts: list[int]) -> list[int]:
        """Arrival counts per ingress protocol, in :class:`Protocol` order."""
        split = [0] * len(Protocol)
        for index, n in zip(self._protocol_index, counts, strict=True):
            split[index] += n
        # A slice of all traffic arrives over plain IP management interfaces.
        split[_IP] += int(0.1 * sum(counts))
        return split

    def _in_mix_order(self, counts: dict[ServiceType, int]) -> list[int]:
        return [counts.get(service, 0) for service in self._services]

    def arrivals(self, time: float, dt: float) -> dict[ServiceType, int]:
        """Poisson arrival counts per service type over ``[time, time+dt)``."""
        return dict(zip(self._services, self.arrival_counts(time, dt), strict=True))

    def demand(self, counts: dict[ServiceType, int]) -> float:
        """Total processing demand of an arrival batch (request-equivalents)."""
        return self.demand_of(self._in_mix_order(counts))

    def protocol_split(
        self, counts: dict[ServiceType, int]
    ) -> dict[Protocol, int]:
        """Arrival counts per ingress protocol."""
        split = self.protocol_counts(self._in_mix_order(counts))
        return dict(zip(Protocol, split, strict=True))
