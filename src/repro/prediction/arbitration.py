"""Criticality-aware Noisy-OR arbitration over a predictor panel.

The paper's Sect. 6 blueprint combines per-layer failure predictors via
meta-learning.  This module implements the concrete recipe from the
Predictive Bayesian Arbitration line of work: treat each base learner as
a noisy cause of system failure, convert its raw score into a calibrated
activation probability, and fuse the panel with the Noisy-OR model

    ``P(failure) = 1 - (1 - leak) * prod_i (1 - c_i * p_i)``

where ``p_i`` is member *i*'s calibrated probability, ``c_i`` its
*criticality* weight in ``[0, 1]`` (how much a warning from the service
this member watches should move the system-level risk), and ``leak`` the
background failure probability no member can see.

Because the fusion is a probability (not an arbitrary score), the Act
layer can rank countermeasures by criticality-weighted expected risk
directly, and per-member *attribution* makes every warning explainable:
in log space the Noisy-OR factorizes additively,

    ``-log(1 - P) = -log(1 - leak) + sum_i -log(1 - c_i * p_i)``

so each member owns a share of the fused risk that sums to one.

The arbitrator is itself a unified
:class:`~repro.prediction.base.Predictor`, so it trains through the same
``fit(TrainingData)`` path as its members, scores aligned multi-modal
batches, and drops into fleet grids, campaigns, and the closed-loop
controller anywhere a single predictor did.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConfigurationError
from repro.prediction.base import (
    SEQUENCES,
    PredictionBatch,
    Predictor,
    PredictorInfo,
    TrainingData,
)
from repro.prediction.calibration import PlattScaling
from repro.telemetry.hub import NULL_HUB, TelemetryHub

#: Criticality assigned to members the spec does not name explicitly.
DEFAULT_CRITICALITY = 1.0


@dataclass
class ArbitrationMember:
    """One base learner in the panel, with its fusion parameters."""

    name: str
    predictor: Predictor
    criticality: float = DEFAULT_CRITICALITY
    calibrator: object = None  # fitted by the arbitrator

    def __post_init__(self) -> None:
        if not isinstance(self.predictor, Predictor):
            raise ConfigurationError(
                f"member {self.name!r} must be a Predictor, got "
                f"{type(self.predictor).__name__}"
            )
        if not 0.0 <= self.criticality <= 1.0:
            raise ConfigurationError(
                f"criticality for member {self.name!r} must be in [0, 1], "
                f"got {self.criticality}"
            )

    def activation(self, raw: np.ndarray) -> np.ndarray:
        """Calibrated activation probabilities of raw member scores."""
        return np.clip(self.calibrator.predict_proba(raw), 0.0, 1.0)


@dataclass
class Attribution:
    """Per-member share of one fused prediction's log-space risk."""

    fused: float
    leak_share: float
    member_probabilities: dict[str, float]
    member_shares: dict[str, float]

    def to_json_dict(self) -> dict:
        return {
            "fused": self.fused,
            "leak_share": self.leak_share,
            "member_probabilities": dict(sorted(self.member_probabilities.items())),
            "member_shares": dict(sorted(self.member_shares.items())),
        }


class NoisyOrArbitrator(Predictor):
    """Noisy-OR fusion of a mixed panel of base predictors.

    ``members`` may hold :class:`ArbitrationMember`\\ s, bare predictors,
    or ``(name, predictor)`` / ``(name, predictor, criticality)`` tuples;
    every predictor must be a :class:`~repro.prediction.base.Predictor`.
    ``fit`` trains every member on the shared
    :class:`~repro.prediction.base.TrainingData` bundle, then fits one
    Platt calibrator per member mapping that member's raw scores on the
    aligned calibration panel to activation probabilities, and keeps those
    probabilities so :meth:`fit_and_score` fuses them without scoring the
    training rows again.

    Scores returned by :meth:`score_batch` ARE calibrated system-level
    failure probabilities (``scores_are_probabilities``), so downstream
    consumers may treat them as ``P(failure)`` without further mapping.
    """

    #: Downstream consumers (controller confidence, Act layer) may treat
    #: scores from this predictor as probabilities directly.
    scores_are_probabilities = True

    def __init__(
        self,
        members,
        criticality: dict[str, float] | None = None,
        leak: float = 0.01,
        telemetry: TelemetryHub = NULL_HUB,
    ) -> None:
        super().__init__()
        if not members:
            raise ConfigurationError("a Noisy-OR panel needs at least one member")
        if not 0.0 <= leak < 1.0:
            raise ConfigurationError(f"leak must be in [0, 1), got {leak}")
        criticality = dict(criticality or {})
        self.members: list[ArbitrationMember] = []
        for i, entry in enumerate(members):
            self.members.append(self._coerce_member(entry, i, criticality))
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate member names in panel: {names}")
        unknown = set(criticality) - set(names)
        if unknown:
            raise ConfigurationError(
                f"criticality map names unknown members: {sorted(unknown)}"
            )
        self.leak = float(leak)
        self.telemetry = telemetry
        #: Optional live event-window source, bound by the controller:
        #: a callable ``(n) -> list[EventSequence]`` supplying the event
        #: view when scoring arrives as bare feature rows.
        self.live_window = None
        #: Attribution of the most recent scored example (telemetry aid).
        self.last_attribution: Attribution | None = None
        #: Calibrated member probabilities on the training rows, shape
        #: ``(n, n_members)``: kept by :meth:`fit` for
        #: :meth:`fit_and_score`, never pickled.
        self.training_probabilities: np.ndarray | None = None
        self.info = PredictorInfo(
            name="noisy-or",
            category="meta/arbitration",
            description=(
                f"Noisy-OR fusion of [{', '.join(names)}] "
                f"(platt-calibrated, leak={self.leak})"
            ),
        )

    @staticmethod
    def _coerce_member(entry, index: int, criticality: dict) -> ArbitrationMember:
        if isinstance(entry, ArbitrationMember):
            # A copy: the caller's member stays untouched, and the
            # overriding criticality passes the same range check.
            return replace(
                entry,
                criticality=float(criticality.get(entry.name, entry.criticality)),
            )
        if isinstance(entry, tuple):
            if len(entry) == 2:
                name, predictor = entry
                weight = criticality.get(name, DEFAULT_CRITICALITY)
            elif len(entry) == 3:
                name, predictor, weight = entry
            else:
                raise ConfigurationError(
                    "member tuples must be (name, predictor[, criticality])"
                )
            return ArbitrationMember(name, predictor, float(weight))
        name = getattr(getattr(entry, "info", None), "name", None) or (
            f"member-{index}"
        )
        return ArbitrationMember(
            name, entry, float(criticality.get(name, DEFAULT_CRITICALITY))
        )

    # ------------------------------------------------------------------
    # Unified Predictor protocol
    # ------------------------------------------------------------------

    @property
    def consumes(self) -> frozenset:  # union of the panel's needs
        out: set = set()
        for member in self.members:
            out |= set(member.predictor.consumes)
        return frozenset(out)

    def fit(self, data: TrainingData) -> "NoisyOrArbitrator":
        """Train every member, then calibrate each on the aligned panel.

        Calibration requires ``data.labels`` plus whichever aligned views
        (``x``, ``sequences``) the panel consumes, so each member's raw
        score on row *t* can be paired with the ground-truth label of the
        same instant.  The calibrated probabilities of those rows are
        kept in :attr:`training_probabilities`.
        """
        if data.labels is None:
            raise ConfigurationError(
                "Noisy-OR calibration needs boolean labels in the training data"
            )
        with self.telemetry.span("arbitration.fit", members=len(self.members)):
            batch = data.batch()
            columns = []
            for member in self.members:
                member.predictor.fit(data)
                raw = np.asarray(member.predictor.score_batch(batch), dtype=float)
                member.calibrator = PlattScaling().fit(raw, data.labels)
                columns.append(member.activation(raw))
            self.training_probabilities = np.column_stack(columns)
        self._fitted = True
        return self

    def fit_and_score(self, data: TrainingData) -> np.ndarray:
        """Fit, then fuse the training probabilities the fit kept.

        The same fused scores and :attr:`last_attribution` as
        ``score_batch(data.batch())`` after :meth:`fit`, without scoring
        every member on the training rows a second time.
        """
        self.fit(data)
        return self._fuse_and_attribute(self.training_probabilities)

    def member_probabilities(self, batch) -> np.ndarray:
        """Calibrated activation probabilities, shape ``(n, n_members)``."""
        self._require_fitted()
        batch = PredictionBatch.coerce(batch)
        columns = []
        for member in self.members:
            raw = np.asarray(member.predictor.score_batch(batch), dtype=float)
            columns.append(member.activation(raw))
        return np.column_stack(columns)

    def _fuse(self, probabilities: np.ndarray) -> np.ndarray:
        weights = np.array([m.criticality for m in self.members])
        survival = (1.0 - self.leak) * np.prod(
            1.0 - weights[np.newaxis, :] * probabilities, axis=1
        )
        return 1.0 - survival

    def _fuse_and_attribute(self, probabilities: np.ndarray) -> np.ndarray:
        """Fused probabilities, recording the last row's attribution."""
        fused = self._fuse(probabilities)
        self.last_attribution = self._attribution_row(
            probabilities[-1], float(fused[-1])
        )
        if self.telemetry.enabled:
            self.telemetry.gauge("arbitration_fused_probability").set(
                float(fused[-1])
            )
        return fused

    def score_batch(self, batch) -> np.ndarray:
        """Fused system-level failure probability per example."""
        batch = PredictionBatch.coerce(batch)
        with self.telemetry.span(
            "arbitration.fuse", members=len(self.members), examples=len(batch)
        ):
            return self._fuse_and_attribute(self.member_probabilities(batch))

    def score_samples(self, x: np.ndarray) -> np.ndarray:
        """Symptom-dialect entry point (controller / fallback seam).

        Feature rows feed the symptom members directly; if the panel also
        has event members, the live window source bound by the controller
        supplies the matching event view.
        """
        x = np.atleast_2d(np.asarray(x, dtype=float))
        sequences = None
        if SEQUENCES in self.consumes:
            if self.live_window is None:
                raise ConfigurationError(
                    "panel has event members but no live window source is "
                    "bound; set arbitrator.live_window"
                )
            sequences = self.live_window(x.shape[0])
        return self.score_batch(PredictionBatch(x=x, sequences=sequences))

    # ------------------------------------------------------------------
    # Attribution (explainable warnings)
    # ------------------------------------------------------------------

    def _attribution_row(
        self, probabilities: np.ndarray, fused: float
    ) -> Attribution:
        contributions = {
            m.name: -np.log1p(-min(m.criticality * float(p), 1.0 - 1e-12))
            for m, p in zip(self.members, probabilities, strict=True)
        }
        leak_part = -np.log1p(-self.leak)
        total = leak_part + sum(contributions.values())
        if total <= 0.0:
            shares = {name: 0.0 for name in contributions}
            leak_share = 0.0
        else:
            shares = {n: float(c / total) for n, c in contributions.items()}
            leak_share = float(leak_part / total)
        return Attribution(
            fused=fused,
            leak_share=leak_share,
            member_probabilities={
                m.name: float(p)
                for m, p in zip(self.members, probabilities, strict=True)
            },
            member_shares=shares,
        )

    def attribute(self, batch) -> list[Attribution]:
        """Per-example attribution: who owns how much of the fused risk."""
        batch = PredictionBatch.coerce(batch)
        probabilities = self.member_probabilities(batch)
        fused = self._fuse(probabilities)
        return [
            self._attribution_row(row, float(f))
            for row, f in zip(probabilities, fused, strict=True)
        ]

    # ------------------------------------------------------------------
    # Pickling (fleet / artifact-store seam)
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Drop runtime-only bindings so trained panels pickle cleanly."""
        state = dict(self.__dict__)
        state["live_window"] = None
        state["telemetry"] = NULL_HUB
        state["last_attribution"] = None
        state["training_probabilities"] = None
        return state

