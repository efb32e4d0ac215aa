"""Online change-point detection for retraining triggers.

Sect. 6: "Online change point detection algorithms such as [Basseville &
Nikiforov] can be used to determine whether the parameters have to be
re-adjusted" when system behaviour drifts (updates, reconfigurations).

:class:`CUSUM` is the classic two-sided detector;
:class:`~repro.prediction.adaptive.AdaptiveRetrainingPredictor` feeds it a
predictor's scores and retrains when their level shifts.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class CUSUM:
    """Two-sided cumulative-sum detector.

    Detects upward or downward shifts of at least ``drift`` in the mean of
    a unit-variance-ish stream; alarm when either cumulative statistic
    exceeds ``threshold``.
    """

    def __init__(self, threshold: float = 8.0, drift: float = 0.5) -> None:
        if threshold <= 0 or drift < 0:
            raise ConfigurationError("need threshold > 0 and drift >= 0")
        self.threshold = threshold
        self.drift = drift
        self.reset()

    def reset(self) -> None:
        self.positive_sum = 0.0
        self.negative_sum = 0.0
        self.samples_seen = 0
        self._mean = 0.0

    def update(self, value: float) -> bool:
        """Feed one observation; returns True when a change is detected.

        The reference level is the running mean of the stream so far,
        so the detector needs no a-priori normal level.
        """
        self.samples_seen += 1
        # Running reference (before incorporating the new value fully).
        previous_mean = self._mean
        self._mean += (value - self._mean) / self.samples_seen
        deviation = value - previous_mean if self.samples_seen > 1 else 0.0
        self.positive_sum = max(0.0, self.positive_sum + deviation - self.drift)
        self.negative_sum = max(0.0, self.negative_sum - deviation - self.drift)
        if self.positive_sum > self.threshold or self.negative_sum > self.threshold:
            alarm_reset_mean = self._mean
            self.reset()
            self._mean = alarm_reset_mean
            return True
        return False

