"""Resource-exhaustion trend analysis (Garg et al. 1998 style).

"trend analysis techniques like the one developed in [28]" -- estimate the
slope of a resource variable (robustly, via the Theil-Sen estimator over a
sliding window) and score failure-proneness by the projected time to
exhaustion.

This is a symptom-monitoring predictor whose feature matrix rows must be
*time-ordered* (as produced by the dataset grid); the score of row ``i``
uses rows ``i-window+1 .. i``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.prediction.base import PredictorInfo, SymptomPredictor, is_binary
from repro.prediction.metrics import auc


def theil_sen_slope(values: np.ndarray) -> float:
    """Median of pairwise slopes -- robust trend estimate."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        return 0.0
    idx = np.arange(n)
    slopes = []
    for i in range(n - 1):
        dt = idx[i + 1 :] - idx[i]
        dv = values[i + 1 :] - values[i]
        slopes.append(dv / dt)
    return float(np.median(np.concatenate(slopes)))


class TrendAnalysisPredictor(SymptomPredictor):
    """Time-to-exhaustion scoring on a depletable resource variable."""

    info = PredictorInfo(
        name="TrendAnalysis",
        category="symptom-monitoring/time-series-analysis",
        description="Theil-Sen trend + projected time-to-exhaustion",
    )

    def __init__(
        self,
        variable_index: int | None = None,
        window: int = 10,
        floor: float = 0.0,
    ) -> None:
        super().__init__()
        if window < 3:
            raise ConfigurationError("window must be >= 3")
        self.variable_index = variable_index
        self.window = window
        self.floor = floor

    def fit_samples(self, x: np.ndarray, y: np.ndarray) -> "TrendAnalysisPredictor":
        """Pick the most informative variable when none was designated.

        Tries each column and keeps the one whose exhaustion score best
        ranks the training labels (AUC).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        labels = self._labels_from_target(y)
        if self.variable_index is None:
            best_auc, best_var = -1.0, 0
            for j in range(x.shape[1]):
                scores = self._scores_for(x[:, j])
                try:
                    candidate_auc = auc(scores, labels)
                except Exception:  # pfmlint: disable=PFM009 -- a column whose AUC is undefined (constant scores, one class) is simply not a candidate
                    continue
                if candidate_auc > best_auc:
                    best_auc, best_var = candidate_auc, j
            self.variable_index = best_var
        self._fitted = True
        return self

    @staticmethod
    def _labels_from_target(y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float).ravel()
        if is_binary(y):
            return y.astype(bool)
        # Continuous availability target: failures are the low tail.
        return y < np.quantile(y, 0.1)

    def _scores_for(self, values: np.ndarray) -> np.ndarray:
        """1 / time-to-exhaustion per row (0 when the trend is improving)."""
        values = np.asarray(values, dtype=float)
        scores = np.zeros(values.size)
        for i in range(values.size):
            lo = max(0, i - self.window + 1)
            segment = values[lo : i + 1]
            if segment.size < 3:
                continue
            slope = theil_sen_slope(segment)
            level = values[i] - self.floor
            if slope < 0 and level > 0:
                time_to_exhaustion = level / (-slope)
                scores[i] = 1.0 / max(time_to_exhaustion, 1e-9)
            elif level <= 0:
                scores[i] = 1.0
        return scores

    def score_samples(self, x: np.ndarray) -> np.ndarray:
        self._require_fitted()
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self._scores_for(x[:, self.variable_index])
