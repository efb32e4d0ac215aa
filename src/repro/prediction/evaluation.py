"""Train/test evaluation harness for failure predictors.

Standardizes the case-study methodology: chronological train/test split
(no leakage from the future into training), max-F threshold selection on
the training period, and the Sect. 3.3 metric report (precision, recall,
false positive rate, F-measure, AUC).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.monitoring.records import EventSequence
from repro.prediction.base import EventPredictor, SymptomPredictor
from repro.prediction.metrics import ContingencyTable, auc, roc_curve
from repro.prediction.thresholds import max_f_threshold


@dataclass(frozen=True)
class PredictorReport:
    """Evaluation summary for one predictor on one test set."""

    name: str
    precision: float
    recall: float
    false_positive_rate: float
    f_measure: float
    auc: float
    threshold: float
    table: ContingencyTable

    def row(self) -> str:
        """One formatted table row (used by the benchmark printers)."""
        return (
            f"{self.name:<14s} precision={self.precision:.3f} "
            f"recall={self.recall:.3f} fpr={self.false_positive_rate:.3f} "
            f"F={self.f_measure:.3f} AUC={self.auc:.3f}"
        )


def report_from_scores(
    name: str,
    train_scores: np.ndarray,
    train_labels: np.ndarray,
    test_scores: np.ndarray,
    test_labels: np.ndarray,
) -> PredictorReport:
    """Calibrate the threshold on training scores, report on test scores."""
    threshold, _ = max_f_threshold(train_scores, train_labels)
    table = ContingencyTable.from_scores(
        np.asarray(test_scores), np.asarray(test_labels, dtype=bool), threshold
    )
    return PredictorReport(
        name=name,
        precision=table.precision,
        recall=table.recall,
        false_positive_rate=table.false_positive_rate,
        f_measure=table.f_measure,
        auc=auc(test_scores, test_labels),
        threshold=threshold,
        table=table,
    )


def _require_chronological(times: np.ndarray) -> np.ndarray:
    """Validate that ``times`` is a non-empty, non-decreasing 1-D series.

    The split uses ``times[0]``/``times[-1]`` as the covered span;
    on unsorted input that silently yields leaky train/test masks, so
    out-of-order timestamps are a configuration error.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ConfigurationError("times must be a non-empty 1-D array")
    if np.any(np.diff(times) < 0):
        raise ConfigurationError(
            "times must be sorted in non-decreasing order (chronological "
            "splits on unsorted data leak the future into training)"
        )
    return times


def chronological_split(
    times: np.ndarray, fraction: float = 0.6
) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks ``(train, test)`` splitting time-ordered samples."""
    if not 0 < fraction < 1:
        raise ConfigurationError("fraction must be in (0, 1)")
    times = _require_chronological(times)
    cutoff = times[0] + fraction * (times[-1] - times[0])
    train = times <= cutoff
    return train, ~train


def split_sequences(
    sequences: list[EventSequence], cutoff: float
) -> tuple[list[EventSequence], list[EventSequence]]:
    """Split sequences into (before-cutoff, after-cutoff) by window origin."""
    train = [s for s in sequences if s.origin < cutoff]
    test = [s for s in sequences if s.origin >= cutoff]
    return train, test


def evaluate_symptom_predictor(
    predictor: SymptomPredictor,
    x_train: np.ndarray,
    y_train: np.ndarray,
    labels_train: np.ndarray,
    x_test: np.ndarray,
    labels_test: np.ndarray,
    name: str | None = None,
) -> PredictorReport:
    """Fit, calibrate on training labels, evaluate on the test period."""
    predictor.fit_samples(x_train, y_train)
    train_scores = predictor.score_samples(x_train)
    test_scores = predictor.score_samples(x_test)
    report = report_from_scores(
        name or predictor.info.name,
        train_scores,
        np.asarray(labels_train, dtype=bool),
        test_scores,
        np.asarray(labels_test, dtype=bool),
    )
    predictor.set_threshold(report.threshold)
    return report


def evaluate_event_predictor(
    predictor: EventPredictor,
    train_failure: list[EventSequence],
    train_nonfailure: list[EventSequence],
    test_failure: list[EventSequence],
    test_nonfailure: list[EventSequence],
    name: str | None = None,
) -> PredictorReport:
    """Fit on training sequences, calibrate, evaluate on test sequences."""
    predictor.fit_sequences(train_failure, train_nonfailure)
    train_scores, train_labels = predictor._score_labeled(
        train_failure, train_nonfailure
    )
    test_scores, test_labels = predictor._score_labeled(test_failure, test_nonfailure)
    report = report_from_scores(
        name or predictor.info.name,
        train_scores,
        train_labels,
        test_scores,
        test_labels,
    )
    predictor.set_threshold(report.threshold)
    return report


def roc_points(
    scores: np.ndarray, labels: np.ndarray, n_points: int = 11
) -> list[tuple[float, float]]:
    """A coarse ROC polyline (for text output of ROC 'plots')."""
    fpr, tpr, _ = roc_curve(np.asarray(scores), np.asarray(labels, dtype=bool))
    targets = np.linspace(0, 1, n_points)
    points = []
    for target in targets:
        idx = int(np.searchsorted(fpr, target, side="left").clip(0, fpr.size - 1))
        points.append((float(fpr[idx]), float(tpr[idx])))
    return points
