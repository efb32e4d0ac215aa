"""Gauge-read sanitization: the Monitor step's input firewall.

A predictor fed a single NaN produces NaN scores forever after (kernel
distances, logsumexp, Platt scaling all propagate it), and a gauge whose
read callable raises would previously kill the whole ``mea-cycle``
process.  The sanitizer sits between the raw gauges (plus any injected
perturbations) and the feature vector:

- **NaN / infinity** readings are replaced by the last known good value,
- **exceptions** from the read callable are caught and likewise replaced,
- **implausible** readings (paper Sect. 4.3 plausibility checks) are
  replaced too: values below a configured ``lower_bound`` or outside a
  variable's a-priori ``bounds``.  There is no jump ("spike") filter:
  symptoms *are* anomalies, and a 6x spike filter made healthy PFM raise
  zero warnings,
- **stuck** gauges (the same exact value repeated far longer than natural
  jitter allows -- a frozen collector) are flagged,
- a variable whose reads keep failing is marked **stale** so downstream
  consumers can discount it.

Every substitution is counted per variable and reason, so a fault-
injection campaign can assert that monitoring attacks were absorbed
rather than silently ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.errors import ConfigurationError
from repro.telemetry import events as tel_events
from repro.telemetry.hub import NULL_HUB, TelemetryHub


class SanitizedReading(NamedTuple):
    """One sanitized gauge read (an immutable record, cheap to build)."""

    variable: str
    value: float  # what downstream consumers should use
    raw: float  # what the gauge actually returned (NaN for exceptions)
    ok: bool  # the raw reading was usable as-is
    reason: str | None = None  # "nan"|"inf"|"exception"|"bound"|"stuck"
    stale: bool = False  # substitutions have persisted past stale_after


@dataclass
class _VariableState:
    last_good: float | None = None
    last_value: float | None = None
    repeats: int = 0
    consecutive_bad: int = 0


@dataclass
class GaugeSanitizer:
    """Detect NaN / stuck / stale gauge readings; substitute last-known-good.

    Parameters
    ----------
    stale_after:
        Number of consecutive bad reads after which a variable is flagged
        stale (its substituted value no longer tracks reality).
    stuck_after:
        Number of *identical nonzero* consecutive readings after which a
        gauge is flagged stuck.  Zero readings are exempt because idle
        gauges legitimately sit at 0.0 for long stretches.
    lower_bound:
        Optional plausibility floor: finite readings below it (e.g. a
        negative utilization) are treated as corrupt and substituted.
    bounds:
        Optional per-variable ``{variable: (low, high)}`` plausibility
        ranges from a-priori knowledge (e.g. a utilization can never be
        negative or 8.0); either end may be None.  Out-of-range readings
        are substituted with reason ``"bound"``.
    telemetry:
        Telemetry hub that mirrors every substitution as a
        ``sanitizer_substitutions_total{variable,reason}`` counter plus a
        ``sanitizer.substitution`` event, and flags staleness
        transitions (disabled by default).
    """

    stale_after: int = 3
    stuck_after: int = 20
    lower_bound: float | None = None
    bounds: dict[str, tuple[float | None, float | None]] | None = None
    telemetry: TelemetryHub = NULL_HUB
    events: dict[str, dict[str, int]] = field(default_factory=dict, init=False)
    _states: dict[str, _VariableState] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.stale_after < 1:
            raise ConfigurationError("stale_after must be >= 1")
        if self.stuck_after < 2:
            raise ConfigurationError("stuck_after must be >= 2")

    def read(self, variable: str, read_fn: Callable[[], float]) -> SanitizedReading:
        """Read one gauge through the sanitizer.

        A reading that is finite, in bounds and not stuck takes the good
        path: it updates the variable's state in place and allocates
        nothing but its result.
        """
        state = self._states.get(variable)
        if state is None:
            state = self._states[variable] = _VariableState()
        try:
            raw = float(read_fn())
        except Exception:
            return self._substitute(variable, state, math.nan, "exception")
        if not math.isfinite(raw):
            reason = "nan" if math.isnan(raw) else "inf"
            return self._substitute(variable, state, raw, reason)
        if self.lower_bound is not None and raw < self.lower_bound:
            return self._substitute(variable, state, raw, "bound")
        if self.bounds is not None:
            low, high = self.bounds.get(variable, (None, None))
            if (low is not None and raw < low) or (high is not None and raw > high):
                return self._substitute(variable, state, raw, "bound")

        # A finite reading: track the repeat run for stuck detection.
        if raw == state.last_value:
            state.repeats += 1
        else:
            state.repeats = 0
        state.last_value = raw
        state.consecutive_bad = 0

        # Exact-zero sentinel: a gauge resting at literal 0.0 is a
        # legitimate idle reading, not a stuck value.
        if state.repeats >= self.stuck_after and raw != 0.0:  # pfmlint: disable=PFM003 -- exact-zero sentinel
            # The value itself is the best estimate we have; flag, don't
            # substitute -- a frozen gauge's last value *is* last-known-good.
            self._count(variable, "stuck")
            return SanitizedReading(variable, raw, raw, False, "stuck", True)

        state.last_good = raw
        return SanitizedReading(variable, raw, raw, True)

    def _substitute(
        self, variable: str, state: _VariableState, raw: float, reason: str
    ) -> SanitizedReading:
        """Count a bad reading and stand in the last known good value
        (0.0 before the variable's first good read)."""
        state.consecutive_bad += 1
        self._count(variable, reason)
        if state.consecutive_bad == self.stale_after:
            self.telemetry.emit(
                tel_events.SANITIZER_STALE,
                variable=variable,
                consecutive_bad=state.consecutive_bad,
            )
            self.telemetry.counter("sanitizer_stale_total").inc()
        value = state.last_good if state.last_good is not None else 0.0
        return SanitizedReading(
            variable=variable,
            value=value,
            raw=raw,
            ok=False,
            reason=reason,
            stale=state.consecutive_bad >= self.stale_after,
        )

    def _count(self, variable: str, reason: str) -> None:
        per_var = self.events.setdefault(variable, {})
        per_var[reason] = per_var.get(reason, 0) + 1
        self.telemetry.counter(
            "sanitizer_substitutions_total", variable=variable, reason=reason
        ).inc()
        self.telemetry.emit(
            tel_events.SANITIZER_SUBSTITUTION, variable=variable, reason=reason
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stale_variables(self) -> list[str]:
        """Variables currently running on substituted (or frozen) values."""
        stale = []
        for variable, state in self._states.items():
            if state.consecutive_bad >= self.stale_after:
                stale.append(variable)
            elif (
                state.last_value is not None
                # Same exact-zero sentinel as the stuck check above.
                and state.last_value != 0.0  # pfmlint: disable=PFM003 -- exact-zero sentinel
                and state.repeats >= self.stuck_after
            ):
                stale.append(variable)
        return stale

    @property
    def total_substitutions(self) -> int:
        """Total bad readings absorbed across all variables."""
        return sum(
            count for per_var in self.events.values() for count in per_var.values()
        )
