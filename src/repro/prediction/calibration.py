"""Score calibration: turning failure-proneness scores into probabilities.

The Act step's objective function needs "confidence in the prediction"
(paper Sect. 2) -- a probability, not a raw score.  Platt scaling fits a
one-dimensional logistic map ``P(failure | score)`` on held-out scored
data; it is monotone, so ROC/AUC are unchanged, but thresholds and
expected-utility computations get an interpretable scale.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, NotFittedError


class PlattScaling:
    """Logistic calibration ``P(y=1 | score) = sigma(a * score + b)``.

    Fitted by Newton iterations on the regularized log-loss, with the
    standard Platt target smoothing (positive targets slightly below 1,
    negative slightly above 0) to avoid overconfident extrapolation.
    """

    def __init__(self, max_iter: int = 100, tol: float = 1e-10, ridge: float = 1e-6):
        self.max_iter = max_iter
        self.tol = tol
        self.ridge = ridge
        self.a_: float | None = None
        self.b_: float | None = None

    def fit(self, scores: np.ndarray, labels: np.ndarray) -> "PlattScaling":
        scores = np.asarray(scores, dtype=float).ravel()
        labels = np.asarray(labels, dtype=bool).ravel()
        if scores.shape != labels.shape:
            raise ConfigurationError("scores and labels must align")
        n_pos = int(labels.sum())
        n_neg = int(labels.size - n_pos)
        if n_pos == 0 or n_neg == 0:
            raise ConfigurationError("need both classes to calibrate")
        # Platt's smoothed targets.
        t_pos = (n_pos + 1.0) / (n_pos + 2.0)
        t_neg = 1.0 / (n_neg + 2.0)
        targets = np.where(labels, t_pos, t_neg)
        # Standardize the score for numerical stability; fold back after.
        mean = scores.mean()
        std = scores.std() or 1.0
        z = (scores - mean) / std
        a, b = 1.0, 0.0
        for _ in range(self.max_iter):
            logits = np.clip(a * z + b, -35, 35)
            p = 1.0 / (1.0 + np.exp(-logits))
            w = np.clip(p * (1.0 - p), 1e-12, None)
            grad_a = float(np.sum((p - targets) * z) + self.ridge * a)
            grad_b = float(np.sum(p - targets))
            h_aa = float(np.sum(w * z * z) + self.ridge)
            h_ab = float(np.sum(w * z))
            h_bb = float(np.sum(w))
            det = h_aa * h_bb - h_ab * h_ab
            if abs(det) < 1e-300:
                break
            da = (h_bb * grad_a - h_ab * grad_b) / det
            db = (h_aa * grad_b - h_ab * grad_a) / det
            a -= da
            b -= db
            if max(abs(da), abs(db)) < self.tol:
                break
        self.a_ = a / std
        self.b_ = b - a * mean / std
        return self

    def predict_proba(self, scores: np.ndarray) -> np.ndarray:
        """Calibrated ``P(failure)`` per score."""
        if self.a_ is None or self.b_ is None:
            raise NotFittedError("PlattScaling has not been fitted")
        scores = np.asarray(scores, dtype=float)
        logits = np.clip(self.a_ * scores + self.b_, -35, 35)
        return 1.0 / (1.0 + np.exp(-logits))

    def __call__(self, score: float) -> float:
        return float(self.predict_proba(np.array([score]))[0])

