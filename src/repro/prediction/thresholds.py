"""Threshold selection for score-based failure predictors.

"Many failure predictors (including UBF and HSMM) allow to control this
trade-off by use of a threshold."  The paper evaluates at the threshold
maximizing the F-measure.
"""

from __future__ import annotations

import numpy as np

from repro.prediction.metrics import ContingencyTable, precision_recall_curve


def max_f_threshold(scores: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Threshold maximizing F-measure; returns ``(threshold, f_value)``."""
    precision, recall, thresholds = precision_recall_curve(scores, labels)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(
            (precision + recall) > 0,
            2.0 * precision * recall / (precision + recall),
            0.0,
        )
    best = int(np.argmax(f))
    return float(thresholds[best]), float(f[best])


def table_at_max_f(scores: np.ndarray, labels: np.ndarray) -> ContingencyTable:
    """Contingency table at the max-F threshold (the paper's Sect. 3.3
    reporting convention)."""
    threshold, _ = max_f_threshold(scores, labels)
    return ContingencyTable.from_scores(scores, labels, threshold)
