"""The PFM controller: a trained predictor driving countermeasures.

Binds together, on a live (simulated) SCP:

- **Monitor**: reads the system gauges into a feature vector,
- **Evaluate**: scores the vector with a trained symptom predictor and
  identifies the most suspect container,
- **Act**: picks the most effective applicable countermeasure via the
  objective function and executes it (optionally deferred to low load).

The controller also keeps the bookkeeping needed to reconstruct the
paper's Table 1 after the run: every evaluation is a prediction point that
can be classified TP/FP/TN/FN against the failure log.

The MEA wiring is hardened by the :mod:`repro.resilience` layer:

- gauge reads pass through a :class:`GaugeSanitizer` (NaN / stuck / stale
  detection with last-known-good substitution),
- scoring goes through a :class:`FallbackPredictor` so a repeatedly
  faulting primary (one that raises, returns a non-finite score or
  declares a simulated latency beyond the lead time) fails over to a
  secondary model instead of silencing the Evaluate step,
- every action runs behind a per-action :class:`CircuitBreaker`, and an
  executed action that reports failure escalates the target along a
  cleanup -> failover -> restart :class:`EscalationChain`,
- step exceptions become :class:`~repro.core.mea.StepFailure` records via
  the cycle's retry/backoff machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.actions.base import Action, ActionOutcome
from repro.actions.cleanup import StateCleanupAction
from repro.actions.failover import PreventiveFailoverAction
from repro.actions.load import LowerLoadAction, RestoreLoadAction
from repro.actions.restart import PreventiveRestartAction
from repro.actions.selection import ActionSelector, SelectionContext
from repro.core.mea import EvaluationResult, MEACycle
from repro.errors import ConfigurationError
from repro.monitoring.logbook import error_window
from repro.prediction.base import SymptomPredictor
from repro.resilience.escalation import EscalationChain
from repro.resilience.fallback import FallbackPredictor
from repro.resilience.policies import CircuitBreaker, RetryPolicy
from repro.resilience.sanitizer import GaugeSanitizer
from repro.simulator.events import Wakeup
from repro.telecom.system import SCPSystem
from repro.telemetry import events as tel_events
from repro.telemetry.hub import NULL_HUB, TelemetryHub
from repro.telemetry.rolling import RollingQualityTracker, table1_outcome

#: Simulated seconds between MEA cycles.
EVAL_PERIOD = 30.0
#: Cost of letting a predicted failure happen, in the Act objective's units.
FAILURE_COST = 12.0
#: Confidence of a fallback model's warning: its scores are not on the
#: calibrated primary's scale.
FALLBACK_CONFIDENCE = 0.7
#: Simulated seconds an action's open circuit breaker waits before a probe.
BREAKER_COOLDOWN = 600.0
#: Simulated seconds a failed-over primary predictor waits before a probe.
PREDICTOR_RETRY_COOLDOWN = 1_800.0


def default_repertoire() -> list[Action]:
    """A sensible countermeasure mix covering both Fig. 7 goals."""
    return [
        StateCleanupAction(),
        PreventiveFailoverAction(fraction=0.8),
        LowerLoadAction(min_admission=0.5),
        PreventiveRestartAction(restart_duration=45.0),
    ]


def _clip_unit(value: float) -> float:
    """``float(np.clip(value, 0.0, 1.0))`` for one number, without numpy.

    Same results: NaN and -0.0 pass through unchanged, ±inf clip to the
    bounds.
    """
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return float(value)


@dataclass
class WarningEpisode:
    """A raised warning and what was done about it."""

    time: float
    score: float
    confidence: float
    target: str
    action: str | None


@dataclass
class PFMController:
    """Online PFM on a running SCP simulation."""

    system: SCPSystem
    predictor: SymptomPredictor
    variables: list[str]
    lead_time: float = 300.0
    repertoire: list[Action] = field(default_factory=default_repertoire)
    cooldown: float = 120.0
    # --- resilience layer ---------------------------------------------
    fallback_predictor: SymptomPredictor | None = None
    sanitizer: GaugeSanitizer | None = None
    escalation: EscalationChain | None = None
    breaker_failure_threshold: int = 3
    predictor_fault_threshold: int = 3
    # --- criticality-aware arbitration --------------------------------
    #: Per-target service criticality in [0, 1]; unnamed targets get
    #: ``default_criticality``.  Scales the Act objective's expected
    #: benefit, so the same confidence clears the actuation bar sooner
    #: for critical services (criticality-weighted risk, Sect. 6).
    target_criticality: dict[str, float] = field(default_factory=dict)
    default_criticality: float = 1.0
    #: Event-window length fed to a fused panel's event members when the
    #: predictor (e.g. a Noisy-OR arbitrator) asks for a live error
    #: window; the runners pass the evaluation config's data_window, the
    #: length the panel was trained on.
    data_window: float = 1_800.0
    # --- telemetry ----------------------------------------------------
    telemetry: TelemetryHub = NULL_HUB
    rolling_window: int | None = 200
    # --- run state ----------------------------------------------------
    warnings: list[WarningEpisode] = field(default_factory=list, init=False)
    evaluations: list[tuple[float, float, bool]] = field(
        default_factory=list, init=False
    )
    action_outcomes: list[ActionOutcome] = field(default_factory=list, init=False)
    #: Called once, just before the first countermeasure executes.  Until
    #: then the controller has only read the system, so the system is in
    #: the state a run without PFM reaches; the closed loop forks its
    #: baseline there (:func:`~repro.core.experiment.run_closed_loop`).
    before_first_action: Callable[[], None] | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.variables:
            raise ConfigurationError("need at least one monitored variable")
        self._gauges = {g.variable: g for g in self.system.all_gauges()}
        missing = [v for v in self.variables if v not in self._gauges]
        if missing:
            raise ConfigurationError(f"unknown gauges: {missing}")
        self._raw_reads = [(v, self._raw_read(v)) for v in self.variables]
        self.selector = ActionSelector(list(self.repertoire))
        self._restore_load = RestoreLoadAction()
        self._throttled = False
        self._housekeeping_wakeup = Wakeup()
        self._last_action_time = -np.inf
        self._last_warning_time = -np.inf
        self._score_scale: tuple[float, float] | None = None
        if self.sanitizer is None:
            self.sanitizer = GaugeSanitizer()
        if self.escalation is None:
            self.escalation = EscalationChain()
        #: Perturbation hooks ``(variable, value) -> value`` applied to raw
        #: gauge reads *before* sanitization -- the seam PFM-layer fault
        #: injectors attack (monitoring dropouts, corrupted observations).
        self.observation_taps: list = []
        self.breakers: dict[str, CircuitBreaker] = {}
        # Wire the hub through every instrumented collaborator; the
        # simulated clock comes from the engine so every event/span is
        # keyed by sim time (first binding wins if the caller pre-bound).
        self.telemetry.bind_clock(lambda: self.system.engine.now)
        self.sanitizer.telemetry = self.telemetry
        # Online prediction quality (paper Sect. 3.3 metrics as live
        # gauges): a prediction at t resolves once now >= t + 2*lead_time,
        # matching outcome_matrix()'s imminence window.
        self.quality = RollingQualityTracker(
            horizon=2 * self.lead_time,
            window=self.rolling_window,
            telemetry=self.telemetry,
        )
        # Predictors that support profiling spans (hsmm.score_batch etc.)
        # get the same hub so the hot path shows up in the span profile.
        if hasattr(self.predictor, "telemetry"):
            self.predictor.telemetry = self.telemetry
        # A fused panel (Noisy-OR arbitrator) may sit behind wrapper
        # layers (fault-injection proxies); find the innermost
        # object that owns the arbitration seams and wire them up.  The
        # walk uses each object's own __dict__ so delegating __getattr__
        # proxies are traversed rather than mistaken for the arbitrator.
        self._arbitrator = None
        target, hops = self.predictor, 0
        while target is not None and hops < 8:
            owned = vars(target) if hasattr(target, "__dict__") else {}
            if "live_window" in owned:
                self._arbitrator = target
                target.live_window = self._live_windows
                if hasattr(target, "telemetry"):
                    target.telemetry = self.telemetry
                break
            target = owned.get("inner")
            hops += 1
        self.scoring = FallbackPredictor(
            primary=self.predictor,
            secondary=self.fallback_predictor,
            clock=lambda: self.system.engine.now,
            failure_threshold=self.predictor_fault_threshold,
            cooldown=PREDICTOR_RETRY_COOLDOWN,
            # A score that arrives after the failure it predicts is
            # worthless: the Evaluate step's one latency guard.
            latency_budget=self.lead_time,
            telemetry=self.telemetry,
        )
        self.mea = MEACycle(
            engine=self.system.engine,
            monitor=self._monitor,
            evaluate=self._evaluate,
            act=self._act,
            period=EVAL_PERIOD,
            retry=RetryPolicy(),
            telemetry=self.telemetry,
        )

    # ------------------------------------------------------------------
    # MEA steps
    # ------------------------------------------------------------------

    def _breaker(self, action_name: str) -> CircuitBreaker:
        breaker = self.breakers.get(action_name)
        if breaker is None:
            breaker = CircuitBreaker(
                name=action_name,
                failure_threshold=self.breaker_failure_threshold,
                cooldown=BREAKER_COOLDOWN,
                on_transition=self._breaker_transition,
            )
            self.breakers[action_name] = breaker
        return breaker

    def _breaker_transition(
        self, name: str, old: str, new: str, now: float
    ) -> None:
        self.telemetry.emit(
            tel_events.BREAKER_TRANSITION, breaker=name, from_state=old, to=new
        )
        self.telemetry.counter(
            "breaker_transitions_total", breaker=name, to=new
        ).inc()

    def _raw_read(self, variable: str):
        """The raw read of one variable: its gauge, then the taps.

        The taps are looked up at call time, so an injector that attaches
        one after construction still sees every later read.
        """
        gauge_read = self._gauges[variable].read

        def raw() -> float:
            value = float(gauge_read())
            for tap in self.observation_taps:
                value = tap(variable, value)
            return value

        return raw

    def _monitor(self) -> np.ndarray:
        read = self.sanitizer.read
        return np.array([read(name, raw).value for name, raw in self._raw_reads])

    def _live_windows(self, n: int) -> list:
        """``n`` copies of the error window ending now (arbitration seam).

        The same :func:`~repro.monitoring.logbook.error_window` a panel's
        event members were calibrated on.
        """
        window = error_window(
            self.system.error_log, self.system.engine.now, self.data_window
        )
        return [window] * n

    def calibrate_confidence(self, training_scores: np.ndarray) -> None:
        """Learn a score -> confidence mapping from training scores.

        Confidence is the score's position between the threshold and the
        training maximum.
        """
        scores = np.asarray(training_scores, dtype=float)
        if scores.size == 0:
            raise ConfigurationError(
                "calibrate_confidence needs at least one training score"
            )
        self._score_scale = (self.predictor.threshold, float(scores.max()))

    def _confidence(self, score: float) -> float:
        # A fused arbitration score already IS a calibrated probability;
        # re-mapping it through the score scale would double-calibrate.
        source = self._arbitrator if self._arbitrator is not None else self.predictor
        if getattr(source, "scores_are_probabilities", False):
            return _clip_unit(score)
        if self._score_scale is None:
            return 1.0 if score >= self.predictor.threshold else 0.0
        low, high = self._score_scale
        if high <= low:
            return 1.0 if score >= low else 0.0
        return _clip_unit((score - low) / (high - low))

    def _suspect(self) -> str:
        """The most degraded container (simple diagnosis step)."""

        def badness(component) -> float:
            return (
                component.swap_activity * 3.0
                + component.corruption
                + component.degraded_fraction * 2.0
                + max(component.utilization - 0.5, 0.0)
            )

        return max(self.system.containers, key=badness).name

    def _evaluate(self, observation: np.ndarray) -> EvaluationResult:
        result = self.scoring.score(observation)
        score, warning = result.score, result.warning
        if result.source == "primary":
            confidence = self._confidence(score)
        elif result.source == "secondary":
            # Secondary scores live on a different scale than the
            # calibrated primary; use a fixed moderate confidence.
            confidence = FALLBACK_CONFIDENCE
        else:
            confidence = 0.0
        now = self.system.engine.now
        self.evaluations.append((now, score, warning))
        self.quality.record(now, warning)
        self.quality.resolve(now, self.system.failure_log.failure_times())
        # Per-member attribution makes a fused warning explainable: emit
        # who owns how much of the crossed risk alongside the episode.
        attribution = getattr(self._arbitrator, "last_attribution", None)
        if warning and attribution is not None and result.source == "primary":
            self.telemetry.emit(
                tel_events.ARBITRATION_ATTRIBUTION,
                fused=attribution.fused,
                leak_share=attribution.leak_share,
                member_shares=dict(attribution.member_shares),
            )
            self.telemetry.counter("arbitration_warnings_total").inc()
        # Diagnosis is a full pass over all containers -- only pay for it
        # when a warning actually needs a target.
        target = self._suspect() if warning else ""
        return EvaluationResult(
            score=score,
            warning=warning,
            confidence=confidence,
            target=target,
        )

    def _choose_action(self, now: float, context: SelectionContext) -> Action | None:
        """Pick the countermeasure: escalation chain first, then utility.

        A target with a pending escalation (a previous action against it
        reported failure) walks the cleanup -> failover -> restart ladder
        from its current level, skipping circuit-broken or inapplicable
        levels; otherwise the objective function ranks the repertoire,
        with open-breaker actions excluded from consideration.
        """
        for action in self.escalation.candidates(context.target, now):
            if not self._breaker(action.name).allow(now):
                continue
            if action.applicable(self.system, context.target):
                return action
        excluded = {
            action.name
            for action in self.selector.repertoire
            if not self._breaker(action.name).allow(now)
        }
        return self.selector.select(self.system, context, exclude=excluded)

    def _act(self, evaluation: EvaluationResult) -> str | None:
        now = self.system.engine.now
        self._last_warning_time = now
        if now - self._last_action_time < self.cooldown:
            # Still a raised warning: record the episode (with no action)
            # so outcome_matrix() sees every acted-upon evaluation and
            # maybe_restore_load() sees fresh warning times during the
            # cooldown window.
            episode = WarningEpisode(
                time=now,
                score=evaluation.score,
                confidence=evaluation.confidence,
                target=evaluation.target,
                action=None,
            )
            self.warnings.append(episode)
            self.telemetry.emit(
                tel_events.COOLDOWN_SUPPRESSED,
                target=evaluation.target,
                since_last_action=now - self._last_action_time,
            )
            self.telemetry.counter("pfm_cooldown_suppressed_total").inc()
            self._emit_episode(episode)
            return None
        context = SelectionContext(
            confidence=evaluation.confidence,
            target=evaluation.target,
            failure_cost=FAILURE_COST,
            criticality=self.target_criticality.get(
                evaluation.target, self.default_criticality
            ),
        )
        action = self._choose_action(now, context)
        name = None
        if action is not None:
            name = action.name
            inner = getattr(action, "inner", action)
            if isinstance(inner, LowerLoadAction):
                action.set_confidence(evaluation.confidence)
                self._throttled = True
            if self.before_first_action is not None:
                hook, self.before_first_action = self.before_first_action, None
                hook()
            try:
                outcome = action.execute(self.system, evaluation.target)
            except Exception as exc:  # broad by design - degrade, don't die
                self.mea.note_failure("act", exc)
                outcome = ActionOutcome(
                    action=name,
                    target=evaluation.target,
                    time=now,
                    success=False,
                    details={"error": repr(exc)},
                )
            self.action_outcomes.append(outcome)
            self._last_action_time = now
            breaker = self._breaker(name)
            if outcome.success:
                breaker.record_success(now)
                self.escalation.record_success(evaluation.target, now)
            else:
                breaker.record_failure(now)
                self.escalation.record_failure(evaluation.target, now)
                self.telemetry.emit(
                    tel_events.ESCALATION,
                    target=evaluation.target,
                    action=name,
                    level=self.escalation.level(evaluation.target, now),
                )
                self.telemetry.counter("pfm_escalations_total").inc()
        episode = WarningEpisode(
            time=now,
            score=evaluation.score,
            confidence=evaluation.confidence,
            target=evaluation.target,
            action=name,
        )
        self.warnings.append(episode)
        self._emit_episode(episode)
        return name

    def _emit_episode(self, episode: WarningEpisode) -> None:
        self.telemetry.emit(
            tel_events.WARNING_EPISODE,
            score=episode.score,
            confidence=episode.confidence,
            target=episode.target,
            action=episode.action,
        )
        self.telemetry.counter(
            "pfm_warning_episodes_total",
            acted="yes" if episode.action else "no",
        ).inc()

    def maybe_restore_load(self) -> None:
        """Lift admission control once no warning has fired recently."""
        if not self._throttled:
            return
        now = self.system.engine.now
        if now - self._last_warning_time >= 2 * self.lead_time:
            self._restore_load.execute(self.system, "scp")
            self._throttled = False

    def start(self) -> None:
        """Begin the MEA cycle plus the load-restoration housekeeping."""
        self.mea.start()
        self._housekeeping_wakeup.start(self.system.engine, self._housekeeping)

    def _housekeeping(self) -> None:
        """Runs every four evaluation periods while the MEA cycle runs."""
        if self.mea.running:
            self.maybe_restore_load()
            self._housekeeping_wakeup.after(EVAL_PERIOD * 4, self._housekeeping)

    # ------------------------------------------------------------------
    # Telemetry finalization
    # ------------------------------------------------------------------

    def finalize_telemetry(self) -> None:
        """Settle pending quality predictions against the final failure log.

        Call once after the simulation finishes: predictions whose
        resolution horizon extends past the end of the run are settled
        against the complete failure log (no failure recorded => TN/FN by
        the same rule as :meth:`outcome_matrix`), and a ``run.end`` event
        closes the trace.
        """
        self.quality.flush(self.system.failure_log.failure_times())
        self.telemetry.emit(
            tel_events.RUN_END,
            cycles=len(self.mea.history),
            warnings=len(self.warnings),
            **{k: int(v) for k, v in self.quality.counts.items()},
        )

    # ------------------------------------------------------------------
    # Resilience introspection
    # ------------------------------------------------------------------

    def open_breakers(self) -> list[str]:
        """Names of actions whose circuit breaker is currently open."""
        from repro.resilience.policies import BreakerState

        return sorted(
            name
            for name, breaker in self.breakers.items()
            if breaker.state is BreakerState.OPEN
        )

    def resilience_summary(self) -> dict:
        """One dict of everything the resilience layer absorbed this run."""
        return {
            "step_failures": self.mea.failures_by_step(),
            "degraded_iterations": self.mea.degraded_iterations,
            "sanitizer_events": {
                var: dict(reasons) for var, reasons in self.sanitizer.events.items()
            },
            "stale_variables": self.sanitizer.stale_variables(),
            "predictor_faults": self.scoring.primary_faults,
            "fallback_scores": self.scoring.secondary_scores,
            "null_scores": self.scoring.null_scores,
            "breaker_opens": sum(b.times_opened for b in self.breakers.values()),
            "open_breakers": self.open_breakers(),
            "calls_rejected": sum(b.calls_rejected for b in self.breakers.values()),
            "escalations": self.escalation.escalations,
            "failed_actions": sum(
                1 for outcome in self.action_outcomes if not outcome.success
            ),
        }

    # ------------------------------------------------------------------
    # Post-hoc accounting (Table 1)
    # ------------------------------------------------------------------

    def outcome_matrix(self) -> dict[str, dict[str, int]]:
        """Classify every evaluation against the failure log.

        Returns ``{outcome: {"count": n, "acted": m}}`` for outcomes
        TP / FP / TN / FN, where a prediction at time ``t`` is positive if
        a warning fired and the truth is "a failure starts within
        ``[t, t + 2 * lead_time]``".
        """
        failure_times = self.system.failure_log.failure_times()
        horizon = 2 * self.lead_time
        acted_times = {
            round(episode.time, 6) for episode in self.warnings if episode.action
        }
        matrix = {
            key: {"count": 0, "acted": 0} for key in ("TP", "FP", "TN", "FN")
        }
        for time, _score, warning in self.evaluations:
            key = table1_outcome(failure_times, time, warning, horizon)
            matrix[key]["count"] += 1
            if round(time, 6) in acted_times:
                matrix[key]["acted"] += 1
        return matrix
