"""Fault injectors that attack the PFM stack itself.

The injectors in :mod:`repro.faults.injectors` degrade the *managed*
system; these degrade the *manager* -- the depman exemplar's idea of
coupling a dependability manager to an injector manager, applied one
level up.  The attack surface is the PFM controller's own seams:

- :class:`MonitoringDropoutInjector` -- gauges stop reporting (NaN reads,
  frozen values, or raising read callables),
- :class:`ObservationCorruptionInjector` -- gauge readings are corrupted
  (multiplicative spikes, sign flips),
- :class:`PredictorFaultInjector` -- the symptom predictor raises or
  returns NaN scores,
- :class:`PredictorLatencyInjector` -- the predictor becomes slow in
  simulated time (a prediction past the lead time is worthless),
- :class:`ActionFailureInjector` -- countermeasures raise mid-execution
  or report ``ActionOutcome(success=False)``.

Predictor and action attacks go through explicit proxies
(:class:`FlakyPredictorProxy`, :class:`FlakyActionProxy`) installed by
the caller, so production objects never grow injection hooks; monitoring
attacks use the controller's ``observation_taps`` seam, which sits below
the gauge sanitizer by construction.

All injectors are episodic simulation processes: episodes start after
exponentially distributed gaps (``mtbf``) and last ``duration`` simulated
seconds, mirroring the system-level faultload's activation model.

Every proxy and injector requires an **explicit** random generator (or
seed) -- typically derived from the owning spec's injection seed.  There
is deliberately no seed-zero fallback: with one, two fleet shards that
forgot to pass a stream would silently replay the same attack schedule
(pfmlint rule PFM001).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.actions.base import Action, ActionOutcome
from repro.errors import ActionExecutionError, ConfigurationError, PFMFaultError
from repro.rng import ensure_rng
from repro.simulator.engine import Engine
from repro.simulator.events import Wakeup

#: Valid fault modes per proxy family.
PREDICTOR_FAULT_MODES = ("exception", "nan")
ACTION_FAULT_MODES = ("exception", "report-failure")
DROPOUT_MODES = ("nan", "stuck", "exception")


# ----------------------------------------------------------------------
# Proxies: the fault hooks wrapped around PFM components
# ----------------------------------------------------------------------


class FlakyPredictorProxy:
    """Wraps a symptom predictor with injectable fault behaviour.

    Transparent while no fault mode is set; under an active fault it
    raises :class:`PFMFaultError` or returns NaN scores with
    ``fail_probability`` per call, and may declare a nonzero
    ``simulated_latency`` (consumed by the fallback's latency budget).
    Everything else delegates to the wrapped predictor.
    """

    def __init__(self, inner, rng: np.random.Generator | int) -> None:
        self.inner = inner
        # An explicit stream is mandatory: two shards that both fell back
        # to a seed-zero default would replay identical attack schedules.
        self.rng = ensure_rng(rng)
        self.fail_mode: str | None = None
        self.fail_probability = 1.0
        self.simulated_latency = 0.0
        self.faults_injected = 0

    def score_samples(self, x: np.ndarray) -> np.ndarray:
        if self.fail_mode is not None and self.rng.random() < self.fail_probability:
            self.faults_injected += 1
            if self.fail_mode == "exception":
                raise PFMFaultError("injected predictor fault")
            return np.full(np.atleast_2d(x).shape[0], np.nan)
        return self.inner.score_samples(x)

    def __getattr__(self, name: str):
        return getattr(self.__dict__["inner"], name)


class FlakyActionProxy(Action):
    """Wraps a countermeasure with injectable execution failures.

    Mirrors the inner action's selection attributes (name, category,
    cost, complexity, success probability) so the objective function and
    circuit breakers see the real action; under an active fault mode the
    execution raises :class:`ActionExecutionError` or reports
    ``success=False`` *without* applying the countermeasure's effect (the
    action died before doing its work).
    """

    def __init__(self, inner: Action, rng: np.random.Generator | int) -> None:
        self.__dict__["inner"] = inner
        self.rng = ensure_rng(rng)
        self.name = inner.name
        self.category = inner.category
        self.cost = inner.cost
        self.complexity = inner.complexity
        self.success_probability = inner.success_probability
        self.executions = 0
        self.fail_mode: str | None = None
        self.fail_probability = 1.0
        self.faults_injected = 0

    def applicable(self, system, target: str) -> bool:
        return self.inner.applicable(system, target)

    def execute(self, system, target: str) -> ActionOutcome:
        self.executions += 1
        if self.fail_mode is not None and self.rng.random() < self.fail_probability:
            self.faults_injected += 1
            if self.fail_mode == "exception":
                raise ActionExecutionError(
                    f"injected failure executing {self.name!r}"
                )
            return ActionOutcome(
                action=self.name,
                target=target,
                time=system.engine.now,
                success=False,
                details={"injected": True},
            )
        return self.inner.execute(system, target)

    def __getattr__(self, name: str):
        return getattr(self.__dict__["inner"], name)


def flaky_repertoire(
    actions: list[Action], rng: np.random.Generator | int
) -> list[FlakyActionProxy]:
    """Wrap a whole repertoire in action-failure proxies (one shared rng)."""
    rng = ensure_rng(rng)
    return [FlakyActionProxy(action, rng) for action in actions]


# ----------------------------------------------------------------------
# Episodic injector processes
# ----------------------------------------------------------------------


class PFMInjector(abc.ABC):
    """Base class: drives episodic attacks against the PFM stack."""

    def __init__(
        self,
        rng: np.random.Generator,
        mtbf: float = 3_600.0,
        duration: float = 900.0,
    ) -> None:
        if mtbf <= 0 or duration <= 0:
            raise ConfigurationError("mtbf and duration must be positive")
        self.rng = rng
        self.mtbf = mtbf
        self.duration = duration
        self.running = False
        self.attacking = False
        self.episodes = 0
        self._wakeup = Wakeup()

    @classmethod
    def kind(cls) -> str:
        """Human-readable attack kind tag."""
        return cls.__name__.replace("Injector", "").lower()

    def start(self, engine: Engine) -> None:
        """Launch the episodic attack process."""
        self.running = True
        self._wakeup.start(engine, self._await_episode)

    def stop(self) -> None:
        """Stop attacking (ends any in-progress episode)."""
        self.running = False
        if self.attacking:
            self._deactivate()
            self.attacking = False

    def _await_episode(self) -> None:
        if self.running:
            self._wakeup.after(self.rng.exponential(self.mtbf), self._begin_episode)

    def _begin_episode(self) -> None:
        if not self.running:
            return
        self._activate()
        self.attacking = True
        self.episodes += 1
        self._wakeup.after(self.duration, self._end_episode)

    def _end_episode(self) -> None:
        if self.attacking:
            self._deactivate()
            self.attacking = False
        self._await_episode()

    @abc.abstractmethod
    def _activate(self) -> None:
        """Switch the attack on."""

    @abc.abstractmethod
    def _deactivate(self) -> None:
        """Switch the attack off."""


class MonitoringDropoutInjector(PFMInjector):
    """Monitoring goes dark: selected gauges return NaN, freeze, or raise.

    Installs an observation tap on the controller, i.e. the perturbation
    applies to raw reads *before* the sanitizer -- exactly what a crashed
    collector or a wedged SNMP agent looks like from the Evaluate step.
    """

    def __init__(
        self,
        controller,
        rng: np.random.Generator,
        variables: list[str] | None = None,
        mode: str = "nan",
        **kwargs,
    ) -> None:
        super().__init__(rng, **kwargs)
        if mode not in DROPOUT_MODES:
            raise ConfigurationError(f"mode must be one of {DROPOUT_MODES}")
        self.controller = controller
        self.variables = set(variables) if variables is not None else None
        self.mode = mode
        self.reads_attacked = 0
        self._frozen: dict[str, float] = {}

    def _tap(self, variable: str, value: float) -> float:
        if self.variables is not None and variable not in self.variables:
            return value
        self.reads_attacked += 1
        if self.mode == "exception":
            raise PFMFaultError(f"injected read failure on {variable!r}")
        if self.mode == "stuck":
            return self._frozen.setdefault(variable, value)
        return float("nan")

    def _activate(self) -> None:
        self._frozen.clear()
        self.controller.observation_taps.append(self._tap)

    def _deactivate(self) -> None:
        if self._tap in self.controller.observation_taps:
            self.controller.observation_taps.remove(self._tap)


class ObservationCorruptionInjector(PFMInjector):
    """Gauge readings are corrupted: spikes and sign flips per read."""

    def __init__(
        self,
        controller,
        rng: np.random.Generator,
        variables: list[str] | None = None,
        probability: float = 0.5,
        magnitude: float = 8.0,
        **kwargs,
    ) -> None:
        super().__init__(rng, **kwargs)
        if not 0.0 < probability <= 1.0:
            raise ConfigurationError("probability must be in (0, 1]")
        if magnitude <= 1.0:
            raise ConfigurationError("magnitude must exceed 1")
        self.controller = controller
        self.variables = set(variables) if variables is not None else None
        self.probability = probability
        self.magnitude = magnitude
        self.reads_attacked = 0

    def _tap(self, variable: str, value: float) -> float:
        if self.variables is not None and variable not in self.variables:
            return value
        if self.rng.random() >= self.probability:
            return value
        self.reads_attacked += 1
        # Half the corruptions are upward spikes, half sign flips --
        # both shapes a bit-flipped counter or mis-scaled unit produces.
        if self.rng.random() < 0.5:
            return value * self.magnitude
        return -value

    def _activate(self) -> None:
        self.controller.observation_taps.append(self._tap)

    def _deactivate(self) -> None:
        if self._tap in self.controller.observation_taps:
            self.controller.observation_taps.remove(self._tap)


class PredictorFaultInjector(PFMInjector):
    """The primary predictor raises (or returns NaN) while the episode runs."""

    def __init__(
        self,
        proxy: FlakyPredictorProxy,
        rng: np.random.Generator,
        mode: str = "exception",
        probability: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(rng, **kwargs)
        if mode not in PREDICTOR_FAULT_MODES:
            raise ConfigurationError(f"mode must be one of {PREDICTOR_FAULT_MODES}")
        self.proxy = proxy
        self.mode = mode
        self.probability = probability

    def _activate(self) -> None:
        self.proxy.fail_mode = self.mode
        self.proxy.fail_probability = self.probability

    def _deactivate(self) -> None:
        self.proxy.fail_mode = None


class PredictorLatencyInjector(PFMInjector):
    """The predictor becomes slow: declared simulated latency per score."""

    def __init__(
        self,
        proxy: FlakyPredictorProxy,
        rng: np.random.Generator,
        latency: float = 600.0,
        **kwargs,
    ) -> None:
        super().__init__(rng, **kwargs)
        if latency <= 0:
            raise ConfigurationError("latency must be positive")
        self.proxy = proxy
        self.latency = latency

    def _activate(self) -> None:
        self.proxy.simulated_latency = self.latency

    def _deactivate(self) -> None:
        self.proxy.simulated_latency = 0.0


class ActionFailureInjector(PFMInjector):
    """Countermeasures fail mid-execution while the episode runs."""

    def __init__(
        self,
        proxies: list[FlakyActionProxy],
        rng: np.random.Generator,
        mode: str = "report-failure",
        probability: float = 1.0,
        **kwargs,
    ) -> None:
        super().__init__(rng, **kwargs)
        if mode not in ACTION_FAULT_MODES:
            raise ConfigurationError(f"mode must be one of {ACTION_FAULT_MODES}")
        if not proxies:
            raise ConfigurationError("need at least one action proxy to attack")
        self.proxies = list(proxies)
        self.mode = mode
        self.probability = probability

    def _activate(self) -> None:
        for proxy in self.proxies:
            proxy.fail_mode = self.mode
            proxy.fail_probability = self.probability

    def _deactivate(self) -> None:
        for proxy in self.proxies:
            proxy.fail_mode = None
