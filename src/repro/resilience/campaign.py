"""PFM-layer fault-injection campaign: attack the manager, measure grace.

The paper argues PFM improves dependability -- but a fault-management
stack is itself software, and a PFM layer that dies on its first NaN
gauge read is a new single point of failure.  This campaign turns the
repo's own fault-injection machinery against the PFM stack
(:mod:`repro.faults.pfm_injectors`) and measures how gracefully the
hardened MEA pipeline degrades:

- **no-PFM baseline** -- the faultload alone, no controller,
- **healthy PFM** -- the controller attached, nothing attacking it,
- **attacked PFM** -- the controller attached while one scenario's
  injectors disrupt monitoring, prediction or actuation.

Graceful degradation means every attacked run (a) keeps the MEA cycle
alive to the end of the horizon with all step failures surfaced as
:class:`~repro.core.mea.StepFailure` records, and (b) ends up no less
available than the no-PFM baseline: a PFM layer under attack may lose
its benefit, but must never become the failure it was built to prevent.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, fields

import numpy as np

from repro.core.controller import PFMController, default_repertoire
from repro.core.experiment import resolve_spec, simulate_and_train, spec_dataset
from repro.errors import ConfigurationError
from repro.fleet.spec import (
    EVAL_SEED_OFFSET,
    INJECTION_SEED_OFFSET,
    RunResult,
    RunSpec,
)
from repro.faults.pfm_injectors import (
    ActionFailureInjector,
    FlakyPredictorProxy,
    MonitoringDropoutInjector,
    ObservationCorruptionInjector,
    PFMInjector,
    PredictorFaultInjector,
    PredictorLatencyInjector,
    flaky_repertoire,
)
from repro.prediction.arbitration import NoisyOrArbitrator
from repro.prediction.baselines.mset import MSETPredictor
from repro.prediction.metrics import ContingencyTable, auc
from repro.prediction.registry import make_predictor, normalize_predictor_spec
from repro.prediction.thresholds import max_f_threshold
from repro.resilience.sanitizer import GaugeSanitizer
from repro.telecom.dataset import DatasetConfig, prepare_simulation
from repro.telemetry import events as tel_events
from repro.telemetry.hub import NULL_HUB, TelemetryHub
from repro.telemetry.sinks import NULL_SINK
from repro.telemetry.tracing import announce_shard_hub

#: Fleet scenario names of the two non-attacked campaign runs.
NO_PFM = "no-pfm"
HEALTHY_PFM = "healthy-pfm"

#: A-priori plausibility ranges for SCP gauges (paper Sect. 4.3): every
#: monitored variable is nonnegative, and the utilization-like ones are
#: bounded near 1.  Feeds the sanitizer's bound checks so corrupted
#: observations are substituted before they reach a predictor.
GAUGE_BOUNDS: dict[str, tuple[float | None, float | None]] = {
    "cpu_utilization": (0.0, 1.5),
    "db_utilization": (0.0, 1.5),
    "violation_prob": (0.0, 1.0),
}


def _campaign_sanitizer() -> GaugeSanitizer:
    """The input firewall every campaign controller runs behind.

    Only *physically impossible* readings are rejected (negative values,
    utilizations beyond 1): symptoms ARE anomalies, so an aggressive
    spike filter would sanitize away exactly what the predictors watch
    for.
    """
    return GaugeSanitizer(lower_bound=0.0, bounds=dict(GAUGE_BOUNDS))


@dataclass(frozen=True)
class PFMFaultScenario:
    """Which PFM attack surfaces one campaign scenario exercises."""

    name: str
    monitoring_dropout: bool = False
    observation_corruption: bool = False
    predictor_exceptions: bool = False
    predictor_latency: bool = False
    action_failures: bool = False

    @classmethod
    def surfaces(cls) -> tuple[str, ...]:
        """Every attack-surface tag, in declaration order."""
        return tuple(f.name for f in fields(cls) if f.name != "name")

    @property
    def attacks(self) -> tuple[str, ...]:
        """The attack-surface tags active in this scenario."""
        return tuple(tag for tag in self.surfaces() if getattr(self, tag))


def default_scenarios() -> list[PFMFaultScenario]:
    """One scenario per attack surface, plus the combined assault."""
    return [
        PFMFaultScenario("monitoring-dropout", monitoring_dropout=True),
        PFMFaultScenario("observation-corruption", observation_corruption=True),
        PFMFaultScenario("predictor-exceptions", predictor_exceptions=True),
        PFMFaultScenario("predictor-latency", predictor_latency=True),
        PFMFaultScenario("action-failures", action_failures=True),
        PFMFaultScenario(
            "all-fronts",
            monitoring_dropout=True,
            observation_corruption=True,
            predictor_exceptions=True,
            predictor_latency=True,
            action_failures=True,
        ),
    ]


@dataclass
class CampaignConfig:
    """Knobs of one campaign run."""

    train_seed: int = 11
    eval_seed: int = 21
    injection_seed: int = 97
    #: Master seed: when set, the three seeds above are derived from it
    #: exactly as :meth:`RunSpec.seeds` derives them, so one ``--seed``
    #: flag reproduces the whole campaign.
    seed: int | None = None
    horizon: float = 2 * 86_400.0
    variables: list[str] | None = None
    dataset: DatasetConfig | None = None
    #: Primary-predictor spec: a registry name (``"ubf"``) or a nested
    #: ensemble dict (``{"name": "noisy-or", "members": [...]}``); see
    #: :func:`repro.prediction.registry.normalize_predictor_spec`.  The
    #: normalized form is stored, so two configs naming the same panel
    #: compare (and cache) equal.
    predictor: str | dict = "ubf"
    scenarios: list[PFMFaultScenario] = field(default_factory=default_scenarios)
    #: Episodic attack process parameters (exponential gaps, fixed bursts).
    attack_mtbf: float = 3_600.0
    attack_duration: float = 1_200.0
    #: Declared predictor latency during latency episodes; anything above
    #: the controller's evaluate budget (= lead time) triggers fallback.
    attack_latency: float = 1_800.0
    #: Telemetry: when enabled, every PFM run gets its own hub (traces
    #: are written by ``run_campaign(trace_dir=...)``).
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        if not self.scenarios:
            raise ConfigurationError("need at least one scenario")
        if self.seed is not None:
            self.train_seed = self.seed
            self.eval_seed = self.seed + EVAL_SEED_OFFSET
            self.injection_seed = self.seed + INJECTION_SEED_OFFSET
        self.predictor = normalize_predictor_spec(self.predictor)

    def seeds(self) -> dict[str, int]:
        """The resolved seeds actually used by this campaign."""
        return {
            "train": self.train_seed,
            "eval": self.eval_seed,
            "injection": self.injection_seed,
        }


def _step_failures(result: RunResult) -> int:
    """Total MEA step failures a PFM run surfaced as StepFailure records."""
    return sum(result.resilience["step_failures"].values())


@dataclass
class CampaignReport:
    """The graceful-degradation comparison across all scenarios.

    ``healthy`` and ``attacked`` are the PFM shards' own
    :class:`~repro.fleet.spec.RunResult` records; each names its scenario
    in ``result.spec.scenario``.
    """

    baseline_availability: float
    baseline_failures: int
    healthy: RunResult
    attacked: list[RunResult]
    horizon: float
    #: The resolved RNG seeds, echoed so any row can be reproduced.
    seeds: dict = field(default_factory=dict)
    #: The normalized primary-predictor spec the campaign trained.
    predictor: dict = field(default_factory=dict)

    @property
    def predictor_quality(self) -> dict:
        """Training-grid quality comparison (shared by every PFM row).

        The primary (fused and, for an ensemble, per member) against the
        secondary -- see :func:`_predictor_quality`.
        """
        return self.healthy.artifacts.get("predictor_quality") or {}

    def graceful(self, result: RunResult) -> bool:
        """Did this attacked run degrade gracefully?

        The cycle must have survived (kept iterating, so it kept
        producing records), and the attacked system must be at least as
        available as having no PFM at all (tiny float tolerance: "no
        worse" must not fail on a 1e-12 rounding difference).
        """
        return result.mea_iterations > 0 and (
            result.availability >= self.baseline_availability - 1e-9
        )

    @property
    def all_graceful(self) -> bool:
        """True when every attacked scenario degraded gracefully."""
        return all(self.graceful(result) for result in self.attacked)

    def summary(self) -> str:
        """Human-readable campaign table."""
        seeds = " ".join(f"{k}={v}" for k, v in self.seeds.items())
        lines = [
            f"seeds: {seeds}" if seeds else "seeds: (defaults)",
            f"no-PFM baseline: availability={self.baseline_availability:.4f} "
            f"failures={self.baseline_failures}",
            (
                f"{'scenario':<24s} {'avail':>7s} {'fail':>5s} {'warn':>5s} "
                f"{'act':>4s} {'stepfail':>8s} {'fallback':>8s} {'graceful':>8s}"
            ),
        ]
        for result in [self.healthy, *self.attacked]:
            graceful = "-" if result is self.healthy else str(self.graceful(result))
            lines.append(
                f"{result.spec.scenario:<24s} {result.availability:7.4f} "
                f"{result.failures:5d} {result.warnings_raised:5d} "
                f"{result.actions_taken:4d} {_step_failures(result):8d} "
                f"{result.resilience['fallback_scores']:8d} {graceful:>8s}"
            )
        lines.append(f"all attacked scenarios graceful: {self.all_graceful}")
        quality = self.predictor_quality
        if quality:
            for role in ("primary", "secondary"):
                entry = quality.get(role)
                if not entry:
                    continue
                area = entry["auc"]
                lines.append(
                    f"{role} [{entry['name']}]: "
                    f"auc={'n/a' if area is None else format(area, '.4f')} "
                    f"precision={entry['precision']:.3f} "
                    f"recall={entry['recall']:.3f}"
                )
            for name, entry in sorted(quality.get("members", {}).items()):
                area = entry["auc"]
                lines.append(
                    f"  member {name} (c={entry['criticality']:.2f}): "
                    f"auc={'n/a' if area is None else format(area, '.4f')} "
                    f"precision={entry['precision']:.3f} "
                    f"recall={entry['recall']:.3f}"
                )
            best = quality.get("best_single")
            margin = quality.get("fused_minus_best_single_auc")
            if best is not None and margin is not None:
                lines.append(
                    f"fused vs best single ({best['name']}): "
                    f"auc margin {margin:+.4f}"
                )
        return "\n".join(lines)

    def to_json(self) -> str:
        """JSON document of the full report (for dashboards / CI artifacts).

        Scenario rows are sorted by scenario name and every object's keys
        are sorted, so two runs of the same campaign — regardless of the
        order scenarios were configured or finished in — serialize to the
        identical document.
        """

        def row(result: RunResult) -> dict:
            return {
                "scenario": result.spec.scenario,
                "attacks": list(_scenario_from_spec(result.spec).attacks),
                "availability": result.availability,
                "failures": result.failures,
                "mea_iterations": result.mea_iterations,
                "warnings_raised": result.warnings_raised,
                "actions_taken": result.actions_taken,
                "attack_episodes": result.attack_episodes,
                "step_failures": _step_failures(result),
                "cycle_survived": result.mea_iterations > 0,
                "graceful": None if result is self.healthy else self.graceful(result),
                "resilience": result.resilience,
                "warning_episodes": result.warning_episodes,
                "telemetry_events": result.telemetry_events,
                "online_quality": result.online_quality,
                "wall_seconds": result.wall_seconds,
            }

        return json.dumps(
            {
                "horizon": self.horizon,
                "seeds": self.seeds,
                "predictor": self.predictor or None,
                "predictor_quality": self.predictor_quality or None,
                "baseline": {
                    "availability": self.baseline_availability,
                    "failures": self.baseline_failures,
                },
                "healthy": row(self.healthy),
                "attacked": [
                    row(result)
                    for result in sorted(
                        self.attacked, key=lambda r: r.spec.scenario
                    )
                ],
                "all_graceful": self.all_graceful,
            },
            indent=2,
            sort_keys=True,
        )


def _train_models(spec: RunSpec) -> tuple[object, object, np.ndarray, dict]:
    """Fit the primary (per the spec's predictor) and secondary (MSET).

    Returns ``(primary, secondary, training_scores, quality)`` where
    ``quality`` is the :func:`_predictor_quality` comparison computed on
    the training grid (the only place all members, the fused score and
    the secondary are scored on the same aligned rows).
    """
    variables, train_config, _ = resolve_spec(spec)
    primary, training_scores, data = simulate_and_train(
        train_config,
        variables,
        make_predictor(
            _config_from_spec(spec).predictor,
            rng=np.random.default_rng(train_config.seed),
        ),
    )

    secondary = MSETPredictor(
        n_exemplars=16, rng=np.random.default_rng(train_config.seed + 1)
    )
    secondary.fit_samples(data.x, data.y)
    secondary_scores = secondary.score_samples(data.x)
    secondary.calibrate_threshold(secondary_scores, data.labels)
    # Degraded mode must be precision-first: a fallback that warns on
    # half the observations turns the PFM layer itself into the hazard
    # (spurious restarts cost more than the failures they pre-empt).
    secondary.set_threshold(
        max(secondary.threshold, float(np.quantile(secondary_scores, 0.98)))
    )
    quality = _predictor_quality(
        primary, secondary, data, training_scores, secondary_scores
    )
    return primary, secondary, training_scores, quality


def _predictor_quality(
    primary,
    secondary,
    data,
    training_scores: np.ndarray,
    secondary_scores: np.ndarray,
) -> dict:
    """Fused-vs-single quality comparison on the training grid.

    One row (precision / recall / AUC / F at the operating threshold) for
    the primary and the MSET secondary; when the primary is a Noisy-OR
    panel, one row per member (its calibrated activation probabilities,
    which the panel's fit kept, at that member's max-F threshold) plus the
    best single learner and the fused-minus-best AUC margin — the number
    that says whether arbitration earned its keep.
    """
    labels = np.asarray(data.labels, dtype=bool)

    def row(scores, threshold=None) -> dict:
        scores = np.asarray(scores, dtype=float).ravel()
        if threshold is None:
            threshold, _ = max_f_threshold(scores, labels)
        table = ContingencyTable.from_scores(scores, labels, float(threshold))
        try:
            area = float(auc(scores, labels))
        except ConfigurationError:
            area = None  # single-class training grid: AUC undefined
        return {
            "auc": area,
            "f_measure": table.f_measure,
            "precision": table.precision,
            "recall": table.recall,
            "threshold": float(threshold),
        }

    primary_name = getattr(getattr(primary, "info", None), "name", "primary")
    quality: dict = {
        "primary": {"name": primary_name, **row(training_scores, primary.threshold)},
        "secondary": {"name": "mset", **row(secondary_scores, secondary.threshold)},
    }
    if isinstance(primary, NoisyOrArbitrator):
        probabilities = primary.training_probabilities
        members = {}
        for j, member in enumerate(primary.members):
            members[member.name] = {
                "criticality": float(member.criticality),
                **row(probabilities[:, j]),
            }
        quality["members"] = members
        candidates = [
            (m["auc"] if m["auc"] is not None else 0.0, name)
            for name, m in members.items()
        ]
        candidates.append(
            (
                quality["secondary"]["auc"]
                if quality["secondary"]["auc"] is not None
                else 0.0,
                "mset",
            )
        )
        best_auc, best_name = max(candidates)
        fused_auc = quality["primary"]["auc"]
        quality["best_single"] = {"auc": best_auc, "name": best_name}
        quality["fused_minus_best_single_auc"] = (
            fused_auc - best_auc if fused_auc is not None else None
        )
    return quality


def _build_injectors(
    scenario: PFMFaultScenario,
    config: CampaignConfig,
    controller: PFMController,
    predictor_proxy: FlakyPredictorProxy,
    action_proxies,
    rng: np.random.Generator,
) -> list[PFMInjector]:
    episodic = {"mtbf": config.attack_mtbf, "duration": config.attack_duration}
    injectors: list[PFMInjector] = []
    if scenario.monitoring_dropout:
        injectors.append(
            MonitoringDropoutInjector(controller, rng, mode="nan", **episodic)
        )
    if scenario.observation_corruption:
        injectors.append(
            ObservationCorruptionInjector(controller, rng, **episodic)
        )
    if scenario.predictor_exceptions:
        injectors.append(
            PredictorFaultInjector(predictor_proxy, rng, mode="exception", **episodic)
        )
    if scenario.predictor_latency:
        injectors.append(
            PredictorLatencyInjector(
                predictor_proxy, rng, latency=config.attack_latency, **episodic
            )
        )
    if scenario.action_failures:
        injectors.append(
            ActionFailureInjector(action_proxies, rng, mode="report-failure", **episodic)
        )
    return injectors


def _run_scenario(spec: RunSpec, trained: tuple) -> RunResult:
    """One PFM run on the evaluation faultload under the spec's attacks.

    ``trained`` is the :func:`_train_models` tuple.
    """
    primary, secondary, training_scores, quality = trained
    variables, _, eval_config = resolve_spec(spec)
    config = _config_from_spec(spec)
    scenario = _scenario_from_spec(spec)
    # The controller reads its gauges through the sanitizer, and the
    # result reads only the SLA and failure log: no symptom collector.
    sim = prepare_simulation(eval_config, monitor=())

    # Only a trace capture reads the events: announcing arms its sink.
    hub = TelemetryHub(sink=NULL_SINK, keep_spans=False) if spec.telemetry else NULL_HUB
    announce_shard_hub(hub)
    rng = np.random.default_rng(config.injection_seed)
    predictor_proxy = FlakyPredictorProxy(primary, rng)
    action_proxies = flaky_repertoire(default_repertoire(), rng)
    controller = PFMController(
        system=sim.system,
        predictor=predictor_proxy,
        fallback_predictor=secondary,
        variables=variables,
        lead_time=eval_config.lead_time,
        data_window=eval_config.data_window,
        repertoire=list(action_proxies),
        sanitizer=_campaign_sanitizer(),
        telemetry=hub,
    )
    controller.calibrate_confidence(training_scores)
    injectors = _build_injectors(
        scenario, config, controller, predictor_proxy, action_proxies, rng
    )

    hub.emit(
        tel_events.RUN_START,
        scenario=scenario.name,
        attacks=list(scenario.attacks),
        horizon=spec.horizon,
        **{f"{k}_seed": v for k, v in config.seeds().items()},
    )
    wall_start = time.perf_counter()
    controller.start()
    for injector in injectors:
        injector.start(sim.system.engine)
    dataset = sim.run()
    wall_seconds = time.perf_counter() - wall_start
    for injector in injectors:
        injector.stop()
    controller.finalize_telemetry()

    return RunResult(
        spec=spec,
        availability=dataset.system.sla.overall_availability(),
        failures=len(dataset.failure_log),
        mea_iterations=len(controller.mea.history),
        warnings_raised=controller.mea.warnings_raised,
        warning_episodes=len(controller.warnings),
        actions_taken=controller.mea.actions_taken,
        attack_episodes=sum(injector.episodes for injector in injectors),
        resilience=controller.resilience_summary(),
        online_quality=controller.quality.summary() if spec.telemetry else {},
        telemetry_events=hub.published_events,
        metrics_state=hub.registry.to_state() if spec.telemetry else None,
        artifacts={"predictor_quality": quality} if quality else {},
        wall_seconds=wall_seconds,
    )


# ----------------------------------------------------------------------
# Fleet integration: campaign scenarios as RunSpec shards
# ----------------------------------------------------------------------

#: The episodic-attack knobs a spec's options carry; an absent knob keeps
#: its :class:`CampaignConfig` default.
_ATTACK_KNOBS = ("attack_mtbf", "attack_duration", "attack_latency")


def known_scenario_names() -> list[str]:
    """Every campaign scenario the fleet can run by name alone."""
    return [NO_PFM, HEALTHY_PFM] + [s.name for s in default_scenarios()]


def knows_scenario(spec: RunSpec) -> bool:
    """Can :func:`run_scenario_spec` execute this spec?

    True for the built-in scenario names, and for any custom-named spec
    that carries its attack surfaces in ``options["attacks"]``.
    """
    return (
        spec.scenario in known_scenario_names()
        or spec.option("attacks") is not None
    )


def _scenario_from_spec(spec: RunSpec) -> PFMFaultScenario:
    """Reconstruct the attack scenario a spec describes.

    Attack surfaces travel inside the spec (``options["attacks"]``), so a
    pool worker can rebuild any scenario without a shared registry; specs
    naming a default scenario work without options.
    """
    if spec.scenario == HEALTHY_PFM:
        return PFMFaultScenario(HEALTHY_PFM)
    attacks = spec.option("attacks")
    if attacks is not None:
        valid = PFMFaultScenario.surfaces()
        unknown = [tag for tag in attacks if tag not in valid]
        if unknown:
            raise ConfigurationError(
                f"unknown attack surfaces {unknown}; valid: {list(valid)}"
            )
        return PFMFaultScenario(spec.scenario, **{tag: True for tag in attacks})
    for scenario in default_scenarios():
        if scenario.name == spec.scenario:
            return scenario
    raise ConfigurationError(
        f"unknown campaign scenario {spec.scenario!r}; pass its attack "
        f"surfaces via options['attacks'] or use one of {known_scenario_names()}"
    )


def _config_from_spec(spec: RunSpec) -> CampaignConfig:
    """The CampaignConfig one shard runs under.

    Seeds come from the spec, variables from
    :func:`~repro.core.experiment.resolve_spec`, the dataset and attack
    knobs from its options, and the predictor from :func:`_spec_predictor`.
    """
    seeds = spec.seeds()
    variables, _, _ = resolve_spec(spec)
    knobs = {
        name: spec.option(name)
        for name in _ATTACK_KNOBS
        if spec.option(name) is not None
    }
    return CampaignConfig(
        train_seed=seeds["train"],
        eval_seed=seeds["eval"],
        injection_seed=seeds["injection"],
        horizon=spec.horizon,
        variables=variables,
        dataset=spec_dataset(spec),
        predictor=_spec_predictor(spec) or "ubf",
        telemetry=spec.telemetry,
        **knobs,
    )


def _train_key(spec: RunSpec) -> tuple:
    """Cache key of the campaign's trained-model pair for this spec.

    Only fields that influence training participate, so every shard of
    one campaign (healthy and attacked alike) shares a single entry in
    the per-process training cache — the serial backend then trains once,
    exactly like the pre-fleet campaign did.
    """
    return (
        "campaign",
        spec.seeds()["train"],
        spec.horizon,
        spec.variables,
        repr(spec.option("dataset")),
        repr(_spec_predictor(spec)),
    )


def _spec_predictor(spec: RunSpec):
    """The predictor a campaign shard trains; ``None`` is the default UBF.

    :func:`campaign_specs` carries a non-default predictor in
    ``options["predictor"]``, so default shards keep their historical
    keys.  A spec built by hand may name it in ``predictor`` /
    ``predictor_params`` instead, as a closed-loop spec does; naming two
    different predictors is a :class:`ConfigurationError`.
    """
    option = spec.option("predictor")
    if spec.predictor == "ubf" and not spec.predictor_params:
        return option
    named = normalize_predictor_spec({"name": spec.predictor, **spec.params()})
    if option is not None and normalize_predictor_spec(option) != named:
        raise ConfigurationError(
            f"the spec names two predictors: options['predictor'] {option!r} "
            f"and predictor / predictor_params {named!r}"
        )
    return option if option is not None else named


def training_plan_for_spec(spec: RunSpec):
    """``(train_key, builder)`` for one campaign shard (``None``: no-pfm).

    The pair :func:`run_scenario_spec` hands to the shard training
    cache, exposed so the fleet's artifact-store pre-warm pass
    (:func:`repro.fleet.artifacts.prewarm_training`) can train each
    campaign configuration exactly once before fan-out.
    """
    if spec.scenario == NO_PFM:
        return None  # the baseline replays the faultload untrained
    return _train_key(spec), lambda: _train_models(spec)


def campaign_specs(config: CampaignConfig | None = None) -> list[RunSpec]:
    """The campaign as a fleet grid: baseline, healthy, one spec per attack.

    Order is stable: ``[no-pfm, healthy-pfm, *config.scenarios]``.
    """
    config = config or CampaignConfig()
    options: dict[str, object] = {
        name: getattr(config, name) for name in _ATTACK_KNOBS
    }
    if config.dataset is not None:
        options["dataset"] = config.dataset
    if config.predictor != {"name": "ubf"}:
        # Only a non-default panel rides in the spec: bare-ubf campaigns
        # keep their historical shard keys (and ledger identities).
        options["predictor"] = config.predictor
    common = {
        "seed": config.seed if config.seed is not None else config.train_seed,
        "train_seed": config.train_seed,
        "eval_seed": config.eval_seed,
        "injection_seed": config.injection_seed,
        "horizon": config.horizon,
        "variables": tuple(config.variables) if config.variables else None,
        "telemetry": config.telemetry,
    }
    specs = [
        RunSpec(scenario=NO_PFM, options=options, **common),
        RunSpec(scenario=HEALTHY_PFM, options=options, **common),
    ]
    for scenario in config.scenarios:
        specs.append(
            RunSpec(
                scenario=scenario.name,
                options={**options, "attacks": scenario.attacks},
                **common,
            )
        )
    return specs


def run_scenario_spec(spec: RunSpec) -> RunResult:
    """Execute one campaign shard (the fleet's entry point).

    ``no-pfm`` replays the evaluation faultload with no controller at
    all; every other scenario trains (through the per-process cache) and
    runs the attacked / healthy PFM comparison.
    """
    if spec.scenario == NO_PFM:
        _, _, eval_config = resolve_spec(spec)
        wall_start = time.perf_counter()
        dataset = prepare_simulation(eval_config, monitor=()).run()
        return RunResult(
            spec=spec,
            availability=dataset.system.sla.overall_availability(),
            failures=len(dataset.failure_log),
            wall_seconds=time.perf_counter() - wall_start,
        )

    from repro.fleet.shards import cached_training

    return _run_scenario(spec, cached_training(*training_plan_for_spec(spec)))


def run_campaign(
    config: CampaignConfig | None = None,
    trained: tuple | None = None,
    *,
    backend: str = "serial",
    workers: int | None = None,
    ledger_path: str | None = None,
    artifact_store=None,
    progress=None,
    trace_dir: str | None = None,
) -> CampaignReport:
    """Run the full graceful-degradation campaign.

    The campaign rides the fleet runner: every scenario (the no-PFM
    baseline, healthy PFM, and each attacked run) is one self-contained
    :class:`~repro.fleet.spec.RunSpec` shard from :func:`campaign_specs`,
    and the report holds the shards' own
    :class:`~repro.fleet.spec.RunResult` records.  The default ``serial``
    backend trains once per process (via the shard training cache);
    ``backend="process"`` fans scenarios across workers, and
    ``ledger_path`` checkpoints completed scenarios for resume.
    ``trace_dir`` is handed to :func:`~repro.fleet.runner.run_fleet`,
    which writes each shard's telemetry as a JSONL sidecar and merges
    them into ``fleet_trace.jsonl`` there; it traces what the shards
    record, so pair it with ``telemetry=True``.

    Pass ``trained = (primary, secondary, training_scores, quality)``
    (the tuple :func:`_train_models` returns) to skip training -- used by
    the overhead benchmark to compare otherwise-identical runs.  Injected
    models force the serial backend (they cannot cross process
    boundaries into a fresh worker's cache).
    """
    config = config or CampaignConfig()
    specs = campaign_specs(config)
    if trained is not None:
        from repro.fleet.shards import seed_training_cache

        backend = "serial"
        seed_training_cache(_train_key(specs[1]), trained)

    from repro.fleet.runner import run_fleet

    fleet = run_fleet(
        specs,
        backend=backend,
        workers=workers,
        ledger_path=ledger_path,
        artifact_store=artifact_store,
        progress=progress,
        trace_dir=trace_dir,
    )
    baseline = fleet.result_for(specs[0])
    return CampaignReport(
        baseline_availability=baseline.availability,
        baseline_failures=baseline.failures,
        healthy=fleet.result_for(specs[1]),
        attacked=[fleet.result_for(spec) for spec in specs[2:]],
        horizon=config.horizon,
        seeds=config.seeds(),
        predictor=dict(config.predictor),
    )
