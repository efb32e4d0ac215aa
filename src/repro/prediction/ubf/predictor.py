"""The UBF failure predictor (Fig. 5 pipeline).

Three steps, exactly as the paper describes:

1. select the most indicative variables with PWA,
2. fit UBFs mapping monitoring data onto the target function -- here the
   interval service availability, "which was the one chosen in the case
   study",
3. apply the fitted network to runtime monitoring data; the failure-
   proneness score is the predicted *un*availability, thresholded into
   warnings.

Availability lives on a badly-conditioned scale for least squares: the
healthy mass sits at 0.9999+ while failures reach 0.99 or below.  The
predictor therefore regresses on the "nines" transform
``-log10(1 - A + eps)`` (availability expressed as its number of nines),
which spreads the failure tail without changing the ordering; scores and
:meth:`predicted_availability` convert back.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.prediction.base import PredictorInfo, SymptomPredictor, is_binary
from repro.prediction.ubf.network import UBFNetwork
from repro.prediction.ubf.pwa import ProbabilisticWrapper, SelectionResult
from repro.rng import ensure_rng

_EPS = 1e-6


def availability_to_nines(availability: np.ndarray) -> np.ndarray:
    """``A -> -log10(1 - A + eps)`` (e.g. 0.9999 -> ~4)."""
    a = np.clip(np.asarray(availability, dtype=float), 0.0, 1.0)
    return -np.log10(1.0 - a + _EPS)


def nines_to_availability(nines: np.ndarray) -> np.ndarray:
    """Inverse of :func:`availability_to_nines` (clipped to [0, 1])."""
    return np.clip(1.0 - np.power(10.0, -np.asarray(nines, dtype=float)) + _EPS, 0.0, 1.0)


class UBFPredictor(SymptomPredictor):
    """Symptom-monitoring failure predictor built on a UBF network."""

    info = PredictorInfo(
        name="UBF",
        category="symptom-monitoring/function-approximation",
        description="Universal Basis Functions over selected monitoring variables",
    )

    def __init__(
        self,
        n_kernels: int = 12,
        select_variables: bool = True,
        wrapper: ProbabilisticWrapper | None = None,
        network: UBFNetwork | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = ensure_rng(rng, default_seed=0)
        self.select_variables = select_variables
        self.wrapper = wrapper or ProbabilisticWrapper(rng=rng)
        self.network = network or UBFNetwork(n_kernels=n_kernels, rng=rng)
        self.selection_: SelectionResult | None = None
        self.selected_indices_: list[int] | None = None
        # The same columns as an index array: numpy converts a list on
        # every indexing, and score_samples runs once per MEA cycle.
        self._columns: np.ndarray | None = None

    def fit_samples(self, x: np.ndarray, y: np.ndarray) -> "UBFPredictor":
        """Train on monitoring features ``x`` and target availability ``y``.

        ``y`` should be the continuous failure indicator (interval service
        availability in [0, 1]); boolean failure labels also work (they are
        treated as availability ``1 - label``).
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if is_binary(y):
            y = 1.0 - y
        target = availability_to_nines(y)
        if self.select_variables and x.shape[1] > 1:
            self.selection_ = self.wrapper.select(x, target)
            self.selected_indices_ = self.selection_.selected
        else:
            self.selected_indices_ = list(range(x.shape[1]))
        self._columns = np.asarray(self.selected_indices_, dtype=np.intp)
        self.network.fit(x[:, self._columns], target)
        self._fitted = True
        return self

    def score_samples(self, x: np.ndarray) -> np.ndarray:
        """Failure-proneness = negated predicted availability nines."""
        self._require_fitted()
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self._columns is None:
            raise ConfigurationError("predictor fitted without variable selection state")
        predicted_nines = self.network.predict(x[:, self._columns])
        return -predicted_nines

    def predicted_availability(self, x: np.ndarray) -> np.ndarray:
        """The raw target-function estimate (for inspection/plots)."""
        return nines_to_availability(-self.score_samples(x))
