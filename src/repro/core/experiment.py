"""Closed-loop PFM experiments on the simulated SCP.

The experiment the paper could not run on the commercial system ("we could
not apply countermeasures in the commercial system, [so] we assumed
reasonable and moderate values"): train a predictor on one simulated
period, then run the *same* faultload twice -- once plain, once with the
PFM controller attached -- and compare failures, availability and the
Table 1 behaviour matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.actions.checkpoint import PreparedRepairAction, RepairBreakdown
from repro.core.controller import PFMController
from repro.fleet.spec import RunSpec
from repro.prediction.base import SymptomPredictor, TrainingData
from repro.prediction.registry import make_predictor
from repro.simulator.engine import copy_simulation
from repro.telecom.dataset import DatasetConfig, SimulationRun, prepare_simulation

#: Default monitoring variables for the online controller (system gauges).
DEFAULT_VARIABLES = [
    "cpu_utilization",
    "memory_free_mb",
    "swap_activity",
    "max_stretch",
    "response_time_ms",
    "error_rate",
    "violation_prob",
    "db_utilization",
    "request_rate",
]


@dataclass
class ClosedLoopResult:
    """Comparison of the same faultload with and without PFM."""

    baseline_failures: int
    pfm_failures: int
    baseline_window_availability: float
    pfm_window_availability: float
    warnings_raised: int
    actions_taken: int
    actions_by_name: dict[str, int]
    outcome_matrix: dict[str, dict[str, int]]
    predictor_threshold: float
    mea_iterations: int = 0

    @property
    def unavailability_ratio(self) -> float:
        """Measured counterpart of the model's Eq. 14 ratio."""
        baseline_unavail = 1.0 - self.baseline_window_availability
        pfm_unavail = 1.0 - self.pfm_window_availability
        if baseline_unavail <= 0:
            return 1.0
        return pfm_unavail / baseline_unavail

    def summary(self) -> str:
        """Human-readable multi-line result summary."""
        lines = [
            f"failures: {self.baseline_failures} -> {self.pfm_failures}",
            (
                f"window availability: {self.baseline_window_availability:.4f} -> "
                f"{self.pfm_window_availability:.4f}"
            ),
            f"unavailability ratio (measured Eq.14): {self.unavailability_ratio:.3f}",
            f"warnings: {self.warnings_raised}, actions: {self.actions_taken}",
            f"actions by type: {self.actions_by_name}",
        ]
        for outcome, cells in self.outcome_matrix.items():
            lines.append(
                f"  {outcome}: {cells['count']} predictions, {cells['acted']} acted on"
            )
        return "\n".join(lines)


def resolve_spec(spec: RunSpec) -> tuple[list[str], DatasetConfig, DatasetConfig]:
    """The monitored variables and the train and eval datasets of ``spec``.

    ``options["dataset"]`` (a :class:`DatasetConfig` or a dict of its
    fields) is the base configuration, and the spec's train / eval seeds
    and horizon replace its own.  The closed loop, the fleet's closed-loop
    shard and the campaign's shards all resolve a spec here, so one spec
    gives one answer in every mode.
    """
    seeds = spec.seeds()
    base = spec_dataset(spec)
    return (
        list(spec.variables or DEFAULT_VARIABLES),
        replace(base, seed=seeds["train"], horizon=spec.horizon),
        replace(base, seed=seeds["eval"], horizon=spec.horizon),
    )


def spec_dataset(spec: RunSpec) -> DatasetConfig:
    """The base dataset configuration ``spec`` names (seeds not applied)."""
    base = spec.option("dataset")
    if base is None:
        return DatasetConfig()
    if isinstance(base, dict):
        return DatasetConfig(**base)
    return base


def simulate_and_train(
    config: DatasetConfig,
    variables: list[str] | None = None,
    predictor: SymptomPredictor | None = None,
) -> tuple[SymptomPredictor, np.ndarray, TrainingData]:
    """:func:`train_predictor`, also returning the training bundle."""
    variables = variables or DEFAULT_VARIABLES
    # Training reads only these variables' series: sample nothing else.
    dataset = prepare_simulation(config, monitor=variables).run()
    if predictor is None:
        predictor = make_predictor("ubf", rng=np.random.default_rng(config.seed))
    consumes = getattr(predictor, "consumes", frozenset({"samples"}))
    data = dataset.training_data(
        variables=variables,
        consumes=consumes,
        rng=np.random.default_rng(config.seed + 917),
    )
    scores = predictor.fit_and_score(data)
    predictor.calibrate_threshold(scores, data.labels)
    return predictor, scores, data


def train_predictor(
    config: DatasetConfig,
    variables: list[str] | None = None,
    predictor: SymptomPredictor | None = None,
) -> tuple[SymptomPredictor, np.ndarray]:
    """Fit and threshold-calibrate a predictor on a training simulation.

    Works for any unified :class:`~repro.prediction.base.Predictor`: the
    training bundle carries whichever views the predictor declares it
    consumes (feature samples, event sequences, or — for a mixed
    arbitration panel — both), the training scores of the aligned rows
    come from :meth:`~repro.prediction.base.Predictor.fit_and_score`
    (a panel fuses the member scores its fit already computed), and the
    warning threshold is set at their max-F point.  Without
    a ``predictor``, the registry's ``"ubf"`` seeded from ``config.seed``
    is trained.

    Returns ``(predictor, training_scores)``.
    """
    predictor, scores, _ = simulate_and_train(config, variables, predictor)
    return predictor, scores


def train_spec(spec: RunSpec) -> tuple[SymptomPredictor, np.ndarray]:
    """:func:`train_predictor` on the training dataset ``spec`` resolves to.

    The predictor is the one ``spec`` names, built by
    :func:`repro.prediction.make_predictor` and seeded from the train seed.
    """
    variables, train_config, _ = resolve_spec(spec)
    predictor = make_predictor(
        spec.predictor,
        rng=np.random.default_rng(train_config.seed),
        **spec.params(),
    )
    return train_predictor(train_config, variables, predictor)


@dataclass
class TTRComparison:
    """Measured time-to-repair with vs without prediction-driven preparation."""

    prepared_repairs: list[RepairBreakdown]
    classical_repairs: list[RepairBreakdown]

    @staticmethod
    def _mean_total(repairs: list[RepairBreakdown]) -> float:
        if not repairs:
            return float("nan")
        return float(np.mean([r.total for r in repairs]))

    @property
    def mean_prepared_ttr(self) -> float:
        """Mean TTR in the PFM run (prepared when a warning armed the spare)."""
        return self._mean_total(self.prepared_repairs)

    @property
    def mean_classical_ttr(self) -> float:
        """Mean TTR in the baseline run (always classical recovery)."""
        return self._mean_total(self.classical_repairs)

    @property
    def k_measured(self) -> float:
        """The measured Eq. 6 factor ``MTTR / MTTR_prepared``."""
        prepared = self.mean_prepared_ttr
        if not prepared or np.isnan(prepared):
            return float("nan")
        return self.mean_classical_ttr / prepared


def _attach_repair_measurement(
    sim,
    action: PreparedRepairAction,
    breakdowns: list[RepairBreakdown],
    checkpoint_interval: float,
    burst_gap: float,
) -> None:
    """Wire a PreparedRepairAction as the repair mechanism of one run.

    Periodic checkpoints are saved on schedule; every SLA failure episode
    (bursts deduplicated) triggers :meth:`PreparedRepairAction.repair` on
    the most degraded container and records the TTR breakdown.  Whether
    the repair takes the prepared or the classical path depends solely on
    whether a warning armed the spare beforehand.
    """
    system = sim.system
    state = {"last_repair": -np.inf}

    def checkpoint() -> None:
        action.store.save(system.engine.now, tag="periodic")
        system.engine.schedule(checkpoint_interval, checkpoint)

    system.engine.schedule(0.0, checkpoint)
    original_on_failure = system.sla.on_failure

    def on_failure(record) -> None:
        original_on_failure(record)
        if record.time - state["last_repair"] < burst_gap:
            return
        state["last_repair"] = record.time
        worst = max(
            system.containers,
            key=lambda c: c.swap_activity + c.corruption + c.degraded_fraction,
        )
        breakdowns.append(action.repair(system, worst.name, record.time))

    system.sla.on_failure = on_failure


def measure_repair_improvement(
    train_seed: int = 11,
    eval_seed: int = 21,
    horizon: float = 3 * 86_400.0,
    checkpoint_interval: float = 1_200.0,
    burst_gap: float = 900.0,
    variables: list[str] | None = None,
    config: DatasetConfig | None = None,
) -> TTRComparison:
    """Measure the Eq. 6 repair improvement factor ``k`` in closed loop.

    Two runs of the same faultload, both repairing failures through the
    checkpoint/spare machinery: in the PFM run warnings boot the spare and
    save fresh checkpoints ahead of failures (prepared path); the baseline
    run has no warnings, so every repair is classical.
    """
    variables = variables or DEFAULT_VARIABLES
    base_config = config or DatasetConfig()
    train_config = replace(base_config, seed=train_seed, horizon=horizon)
    eval_config = replace(base_config, seed=eval_seed, horizon=horizon)
    predictor, training_scores = train_predictor(train_config, variables)

    # Baseline: classical repairs only.  Neither evaluation run reads a
    # symptom series, so neither keeps a collector.
    classical_breakdowns: list[RepairBreakdown] = []
    baseline_sim = prepare_simulation(eval_config, monitor=())
    _attach_repair_measurement(
        baseline_sim,
        PreparedRepairAction(),
        classical_breakdowns,
        checkpoint_interval,
        burst_gap,
    )
    baseline_sim.run()

    # PFM: the controller's only countermeasure is preparation, so the
    # fault process (and thus the failure set) stays comparable.
    prepared_breakdowns: list[RepairBreakdown] = []
    pfm_sim = prepare_simulation(eval_config, monitor=())
    prepare_action = PreparedRepairAction()
    controller = PFMController(
        system=pfm_sim.system,
        predictor=predictor,
        variables=variables,
        lead_time=eval_config.lead_time,
        repertoire=[prepare_action],
    )
    controller.calibrate_confidence(training_scores)
    _attach_repair_measurement(
        pfm_sim, prepare_action, prepared_breakdowns, checkpoint_interval, burst_gap
    )
    controller.start()
    pfm_sim.run()

    return TTRComparison(
        prepared_repairs=prepared_breakdowns,
        classical_repairs=classical_breakdowns,
    )


def run_closed_loop(
    spec: RunSpec,
    *,
    trained: tuple[SymptomPredictor, np.ndarray] | None = None,
    telemetry=None,
) -> ClosedLoopResult:
    """Train, then compare baseline vs PFM on an identical faultload.

    ``spec`` (a :class:`~repro.fleet.spec.RunSpec`) describes the run:
    ``run_closed_loop(RunSpec(seed=11, eval_seed=21, horizon=86_400.0))``.
    Its seeds, horizon, variables and ``options["dataset"]`` resolve
    through :func:`resolve_spec`, and its predictor trains through
    :func:`train_spec`.

    The baseline is forked from the PFM run.  The two runs are the same
    simulation until the controller first acts, because the controller
    must change no system state before its first action: until then it
    only reads gauges, which draw no random number and write nothing.
    So the PFM run goes first, and just before its first
    ``Action.execute`` a copy of the simulation
    (:func:`~repro.simulator.engine.copy_simulation`) is taken and later
    finished as the baseline.  The copy holds the engine (minus the
    controller's pending housekeeping event), the random streams, the
    system, the faultload and the injectors; it never holds the
    controller, the predictor or the telemetry hub.  When the
    controller never acts, the PFM run's failure log and SLA windows are
    the baseline's.  A copy that cannot be taken raises
    :class:`~repro.errors.SimulationError` out of this call.

    Pass ``trained = (fitted_predictor, training_scores)`` to skip the
    training simulation (the fleet's shared training cache does).  Pass a
    :class:`~repro.telemetry.hub.TelemetryHub` as ``telemetry`` to
    instrument the PFM run (spans, events and live quality gauges); the
    hub is finalized (pending predictions settled, ``run.end`` emitted)
    before this returns.
    """
    variables, train_config, eval_config = resolve_spec(spec)
    predictor, training_scores = trained if trained is not None else train_spec(spec)

    # The runs read only the failure log and the SLA (the controller reads
    # its gauges itself), so neither keeps a symptom collector.
    from repro.telemetry.hub import NULL_HUB

    hub = telemetry if telemetry is not None else NULL_HUB
    pfm_sim = prepare_simulation(eval_config, monitor=())
    controller = PFMController(
        system=pfm_sim.system,
        predictor=predictor,
        variables=variables,
        lead_time=eval_config.lead_time,
        data_window=eval_config.data_window,
        telemetry=hub,
    )
    controller.calibrate_confidence(training_scores)
    forked: list[SimulationRun] = []

    def fork_baseline() -> None:
        forked.append(
            copy_simulation(
                pfm_sim, leave_out=(controller, controller.mea, predictor, hub)
            )
        )

    controller.before_first_action = fork_baseline
    hub.emit(
        "run.start",
        train_seed=train_config.seed,
        eval_seed=eval_config.seed,
        horizon=spec.horizon,
    )
    controller.start()
    pfm_dataset = pfm_sim.run()
    controller.finalize_telemetry()
    baseline = forked[0].finish() if forked else pfm_dataset

    actions_by_name: dict[str, int] = {}
    for episode in controller.warnings:
        if episode.action:
            actions_by_name[episode.action] = actions_by_name.get(episode.action, 0) + 1

    return ClosedLoopResult(
        baseline_failures=len(baseline.failure_log),
        pfm_failures=len(pfm_dataset.failure_log),
        baseline_window_availability=baseline.system.sla.overall_availability(),
        pfm_window_availability=pfm_dataset.system.sla.overall_availability(),
        warnings_raised=controller.mea.warnings_raised,
        actions_taken=controller.mea.actions_taken,
        actions_by_name=actions_by_name,
        outcome_matrix=controller.outcome_matrix(),
        predictor_threshold=predictor.threshold,
        mea_iterations=len(controller.mea.history),
    )
