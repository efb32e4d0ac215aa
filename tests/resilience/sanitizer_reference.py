"""Reference copy of the gauge sanitizer: the oracle for
``test_sanitizer_equivalence``.

:class:`ReferenceGaugeSanitizer` is a verbatim copy of
``GaugeSanitizer`` as it stood before ``read`` gained its good path:
every read builds a ``_VariableState`` for ``setdefault``, checks bounds
through ``_out_of_bounds`` and returns a frozen dataclass.  Only the
class names and this docstring changed; the bodies are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ConfigurationError
from repro.telemetry import events as tel_events
from repro.telemetry.hub import NULL_HUB, TelemetryHub


@dataclass(frozen=True)
class ReferenceSanitizedReading:
    """One sanitized gauge read."""

    variable: str
    value: float  # what downstream consumers should use
    raw: float  # what the gauge actually returned (NaN for exceptions)
    ok: bool  # the raw reading was usable as-is
    reason: str | None = None  # "nan"|"inf"|"exception"|"bound"|"spike"|"stuck"
    stale: bool = False  # substitutions have persisted past stale_after


@dataclass
class _VariableState:
    last_good: float | None = None
    last_value: float | None = None
    repeats: int = 0
    consecutive_bad: int = 0


@dataclass
class ReferenceGaugeSanitizer:
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
    default:
        Fallback value when a read fails before any good value was seen.
    lower_bound:
        Optional plausibility floor: finite readings below it (e.g. a
        negative utilization) are treated as corrupt and substituted.
    spike_factor:
        Optional plausibility ceiling on jumps: a reading whose magnitude
        exceeds ``spike_factor * max(|last_good|, spike_floor)`` is
        treated as corrupt and substituted.  ``spike_floor`` keeps
        small-valued gauges from flagging ordinary activity ramps.
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
    default: float = 0.0
    lower_bound: float | None = None
    spike_factor: float | None = None
    spike_floor: float = 1.0
    bounds: dict[str, tuple[float | None, float | None]] | None = None
    telemetry: TelemetryHub = NULL_HUB
    events: dict[str, dict[str, int]] = field(default_factory=dict)
    _states: dict[str, _VariableState] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.stale_after < 1:
            raise ConfigurationError("stale_after must be >= 1")
        if self.stuck_after < 2:
            raise ConfigurationError("stuck_after must be >= 2")
        if self.spike_factor is not None and self.spike_factor <= 1.0:
            raise ConfigurationError("spike_factor must exceed 1")
        if self.spike_floor <= 0:
            raise ConfigurationError("spike_floor must be positive")

    def read(self, variable: str, read_fn: Callable[[], float]) -> ReferenceSanitizedReading:
        """Read one gauge through the sanitizer."""
        state = self._states.setdefault(variable, _VariableState())
        reason: str | None = None
        try:
            raw = float(read_fn())
        except Exception:
            raw = float("nan")
            reason = "exception"
        else:
            if math.isnan(raw):
                reason = "nan"
            elif math.isinf(raw):
                reason = "inf"
            elif self._out_of_bounds(variable, raw):
                reason = "bound"
            elif (
                self.spike_factor is not None
                and state.last_good is not None
                and abs(raw)
                > self.spike_factor * max(abs(state.last_good), self.spike_floor)
            ):
                reason = "spike"

        if reason is not None:
            state.consecutive_bad += 1
            self._count(variable, reason)
            if state.consecutive_bad == self.stale_after:
                self.telemetry.emit(
                    tel_events.SANITIZER_STALE,
                    variable=variable,
                    consecutive_bad=state.consecutive_bad,
                )
                self.telemetry.counter("sanitizer_stale_total").inc()
            value = state.last_good if state.last_good is not None else self.default
            return ReferenceSanitizedReading(
                variable=variable,
                value=value,
                raw=raw,
                ok=False,
                reason=reason,
                stale=state.consecutive_bad >= self.stale_after,
            )

        # A finite reading: track the repeat run for stuck detection.
        if state.last_value is not None and raw == state.last_value:
            state.repeats += 1
        else:
            state.repeats = 0
        state.last_value = raw
        state.consecutive_bad = 0

        # Exact-zero sentinel: a gauge resting at literal 0.0 is a
        # legitimate idle reading, not a stuck value.
        if raw != 0.0 and state.repeats >= self.stuck_after:  # pfmlint: disable=PFM003
            # The value itself is the best estimate we have; flag, don't
            # substitute -- a frozen gauge's last value *is* last-known-good.
            self._count(variable, "stuck")
            return ReferenceSanitizedReading(
                variable=variable, value=raw, raw=raw, ok=False,
                reason="stuck", stale=True,
            )

        state.last_good = raw
        return ReferenceSanitizedReading(variable=variable, value=raw, raw=raw, ok=True)

    def _out_of_bounds(self, variable: str, raw: float) -> bool:
        if self.lower_bound is not None and raw < self.lower_bound:
            return True
        low, high = (self.bounds or {}).get(variable, (None, None))
        if low is not None and raw < low:
            return True
        return high is not None and raw > high

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
                and state.last_value != 0.0  # pfmlint: disable=PFM003
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
