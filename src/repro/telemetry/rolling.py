"""Online prediction-quality tracking: Sect. 3.3 metrics as live gauges.

The paper evaluates predictors post-hoc (precision / recall / FPR over a
whole test set); at runtime the same question -- "is the predictor still
any good?" -- needs an *online* answer.  The tracker turns the
controller's evaluation stream into rolling contingency counts:

- every evaluation is recorded as a pending prediction ``(t, warning)``,
- once the simulated clock passes ``t + horizon`` the ground truth for
  that prediction is fully known (a failure did or did not start within
  ``[t, t + horizon]`` -- the controller's Table 1 semantics), so
  :func:`table1_outcome` resolves it into TP / FP / TN / FN,
- resolved outcomes enter a bounded rolling window; precision, recall
  and false-positive rate over the window are pushed to gauges
  (``pfm_online_precision`` / ``_recall`` / ``_fpr``) on every resolve.

With an unbounded window and a final :meth:`flush`, the tracker's counts
equal the controller's post-hoc ``outcome_matrix()`` exactly -- the live
gauges are the same metric, just available mid-run.
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Sequence

from repro.errors import ConfigurationError
from repro.telemetry.hub import NULL_HUB, TelemetryHub

_OUTCOMES = ("TP", "FP", "TN", "FN")


def table1_outcome(
    failure_times: Sequence[float], time: float, warning: bool, horizon: float
) -> str:
    """Classify the prediction made at ``time`` as TP / FP / TN / FN.

    The truth (paper Table 1) is "a failure starts within
    ``[time, time + horizon]``"; ``failure_times`` must be sorted
    ascending (the failure log keeps it that way).  The controller's
    post-hoc ``outcome_matrix()`` and the tracker's online resolution
    both classify with this one function.
    """
    idx = bisect.bisect_left(failure_times, time)
    imminent = idx < len(failure_times) and failure_times[idx] <= time + horizon
    if warning:
        return "TP" if imminent else "FP"
    return "FN" if imminent else "TN"


class RollingQualityTracker:
    """Rolling-window precision / recall / FPR over resolved predictions.

    Parameters
    ----------
    horizon:
        Ground-truth match window in simulated seconds: a prediction at
        ``t`` is a true positive when a failure starts in
        ``[t, t + horizon]`` (the controller passes ``2 * lead_time``).
    window:
        Number of most-recent resolved predictions the rolling metrics
        cover.  ``None`` means unbounded (full-run metrics).
    telemetry:
        Hub whose gauges/counters mirror the tracker state.
    """

    def __init__(
        self,
        horizon: float,
        window: int | None = 200,
        telemetry: TelemetryHub = NULL_HUB,
    ) -> None:
        if horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if window is not None and window < 1:
            raise ConfigurationError("window must be >= 1 (or None)")
        self.horizon = horizon
        self.window = window
        self.telemetry = telemetry
        self._pending: deque[tuple[float, bool]] = deque()
        self._outcomes: deque[str] = deque()
        self.counts: dict[str, int] = {key: 0 for key in _OUTCOMES}
        self.total_resolved = 0

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def record(self, time: float, warning: bool) -> None:
        """Register one evaluation awaiting ground truth."""
        self._pending.append((float(time), bool(warning)))

    def resolve(self, now: float, failure_times: Sequence[float]) -> int:
        """Resolve every pending prediction whose truth window has closed.

        ``failure_times`` must be sorted ascending (the failure log keeps
        it that way).  Returns the number of predictions resolved.
        """
        resolved = 0
        while self._pending and self._pending[0][0] + self.horizon <= now:
            time, warning = self._pending.popleft()
            self._settle(time, warning, failure_times)
            resolved += 1
        if resolved:
            self._update_gauges()
        return resolved

    def flush(self, failure_times: Sequence[float]) -> int:
        """Resolve everything still pending (end of run: the log is final)."""
        resolved = 0
        while self._pending:
            time, warning = self._pending.popleft()
            self._settle(time, warning, failure_times)
            resolved += 1
        if resolved:
            self._update_gauges()
        return resolved

    def _settle(
        self, time: float, warning: bool, failure_times: Sequence[float]
    ) -> None:
        outcome = table1_outcome(failure_times, time, warning, self.horizon)
        self._outcomes.append(outcome)
        self.counts[outcome] += 1
        self.total_resolved += 1
        if self.window is not None and len(self._outcomes) > self.window:
            evicted = self._outcomes.popleft()
            self.counts[evicted] -= 1
        self.telemetry.counter(
            "pfm_predictions_resolved_total", outcome=outcome
        ).inc()

    def _update_gauges(self) -> None:
        tel = self.telemetry
        tel.gauge("pfm_online_precision").set(self.precision)
        tel.gauge("pfm_online_recall").set(self.recall)
        tel.gauge("pfm_online_fpr").set(self.false_positive_rate)
        tel.gauge("pfm_online_window_size").set(float(len(self._outcomes)))

    # ------------------------------------------------------------------
    # Rolling metrics (paper Sect. 3.3 definitions)
    # ------------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Predictions still awaiting ground truth."""
        return len(self._pending)

    @property
    def precision(self) -> float:
        denom = self.counts["TP"] + self.counts["FP"]
        return self.counts["TP"] / denom if denom else 0.0

    @property
    def recall(self) -> float:
        denom = self.counts["TP"] + self.counts["FN"]
        return self.counts["TP"] / denom if denom else 0.0

    @property
    def false_positive_rate(self) -> float:
        denom = self.counts["FP"] + self.counts["TN"]
        return self.counts["FP"] / denom if denom else 0.0

    def summary(self) -> dict:
        """JSON-ready snapshot of the rolling state."""
        return {
            "window": self.window,
            "resolved": self.total_resolved,
            "pending": self.pending,
            "counts": dict(self.counts),
            "precision": self.precision,
            "recall": self.recall,
            "false_positive_rate": self.false_positive_rate,
        }
