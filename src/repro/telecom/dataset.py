"""Labeled dataset generation for predictor training and evaluation.

Runs the SCP simulator over a long horizon with a faultload (plus
background error noise), collects monitoring data and the error/failure
logs, and derives the two kinds of labeled data the paper's predictors
consume:

- **UBF samples** -- periodic feature vectors of monitoring variables with
  the *interval service availability* of the window ``lead_time`` ahead as
  the regression target (the target function chosen in the case study) and
  its SLA breach as the binary label;
- **error sequences** (Fig. 6) -- failure sequences taken ``lead_time``
  before each failure over a ``data_window``, and non-failure sequences
  from quiet periods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.faults.faultload import FaultLoad
from repro.faults.injectors import (
    FaultInjector,
    IntermittentErrorInjector,
    MemoryLeakInjector,
    OverloadInjector,
    ProcessHangInjector,
    StateCorruptionInjector,
)
from repro.monitoring.collectors import PeriodicCollector
from repro.monitoring.logbook import error_window
from repro.monitoring.records import EventSequence
from repro.monitoring.timeseries import TimeSeriesStore
from repro.simulator.engine import Engine
from repro.simulator.random_streams import RandomStreams
from repro.telecom.system import SCPConfig, SCPSystem

DAY = 86_400.0

#: Default fault specs: mean time between activations and episode duration.
DEFAULT_FAULT_SPECS = {
    "memory-leak": {"mtbf": 10.0 * 3600, "duration": 2_400.0},
    "process-hang": {"mtbf": 12.0 * 3600, "duration": 1_800.0},
    "state-corruption": {"mtbf": 14.0 * 3600, "duration": 2_400.0},
    "overload": {"mtbf": 12.0 * 3600, "duration": 1_500.0},
}


@dataclass(frozen=True)
class DatasetConfig:
    """Configuration of a dataset-generation run."""

    horizon: float = 14 * DAY
    seed: int = 1
    sample_interval: float = 30.0
    warmup: float = 3_600.0
    lead_time: float = 300.0  # Delta t_l
    data_window: float = 1_800.0  # Delta t_d
    prediction_window: float = 300.0  # Delta t_p (one SLA window)
    post_failure_repair_downtime: float = 120.0
    fault_specs: dict = field(default_factory=lambda: dict(DEFAULT_FAULT_SPECS))
    min_gap: float = 4_000.0
    scp: SCPConfig = field(default_factory=lambda: SCPConfig(container_capacity=2))

    def __post_init__(self) -> None:
        if self.horizon <= self.warmup:
            raise ConfigurationError("horizon must exceed warmup")
        if self.sample_interval <= 0:
            raise ConfigurationError("sample_interval must be positive")


def _make_injector(
    kind: str, target, rng: np.random.Generator
) -> FaultInjector:
    """Injector factory with episode-scale parameters (see DESIGN.md)."""
    if kind == "memory-leak":
        return MemoryLeakInjector(
            target, rng, rate_mb=45.0, period=20.0, warn_after_mb=300.0
        )
    if kind == "process-hang":
        return ProcessHangInjector(
            target, rng, initial_loss=0.2, step_loss=0.06, max_loss=0.8,
            step_period=80.0,
        )
    if kind == "state-corruption":
        return StateCorruptionInjector(
            target, rng, growth=0.035, period=25.0, burst_threshold=0.25
        )
    if kind == "overload":
        return OverloadInjector(
            target, rng, extra_load=55.0, ramp_steps=12, step_period=60.0
        )
    raise ConfigurationError(f"unknown fault kind {kind!r}")


@dataclass
class TelecomDataset:
    """The output of one simulation run, with labeling helpers."""

    config: DatasetConfig
    store: TimeSeriesStore
    system: SCPSystem
    faultload: FaultLoad

    # ------------------------------------------------------------------
    # Raw accessors
    # ------------------------------------------------------------------

    @property
    def error_log(self):
        return self.system.error_log

    @property
    def failure_log(self):
        return self.system.failure_log

    @property
    def failure_times(self) -> list[float]:
        return self.system.failure_log.failure_times()

    @property
    def variables(self) -> list[str]:
        return self.store.variables

    # ------------------------------------------------------------------
    # UBF-style samples (symptom monitoring)
    # ------------------------------------------------------------------

    def sample_grid(self) -> np.ndarray:
        """Sampling times: warmup to the last fully-labelable point."""
        cfg = self.config
        end = cfg.horizon - cfg.lead_time - cfg.prediction_window
        return np.arange(cfg.warmup, end, cfg.sample_interval)

    def ubf_samples(
        self,
        variables: list[str] | None = None,
        grid: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Feature matrix and targets on the sampling grid.

        Returns ``(times, X, y_availability, y_failure)`` where the target
        is the worst interval availability in
        ``[t + lead_time, t + lead_time + prediction_window)`` and the
        binary label marks an SLA breach in that span.
        """
        cfg = self.config
        grid = self.sample_grid() if grid is None else np.asarray(grid, dtype=float)
        variables = variables or self.variables
        if not variables:
            raise ConfigurationError(
                "the run monitored no variables (prepare_simulation(monitor=()))"
            )
        x = self.store.matrix(variables, grid)
        windows = self.system.sla.windows
        window_ends = np.array([w.end for w in windows])
        window_avail = np.array([w.interval_availability for w in windows])
        y_avail = np.ones(grid.size)
        y_fail = np.zeros(grid.size, dtype=bool)
        for i, t in enumerate(grid):
            span_start = t + cfg.lead_time
            span_end = span_start + cfg.prediction_window
            # Windows whose end falls inside the prediction span.
            mask = (window_ends > span_start) & (window_ends <= span_end + cfg.scp.sla_window)
            if mask.any():
                y_avail[i] = float(window_avail[mask].min())
        y_fail = y_avail < cfg.scp.required_availability
        return grid, x, y_avail, y_fail

    def panel_sequences(
        self,
        grid: np.ndarray | None = None,
        max_events: int = 200,
    ) -> list[EventSequence]:
        """One error window per sampling instant, aligned with the grid.

        Each sequence is :func:`~repro.monitoring.logbook.error_window` of
        ``[t - data_window, t)`` — the window a live event predictor is
        fed — so scores over these sequences line up row
        by row with :meth:`ubf_samples` features and labels.  This is the
        calibration view a mixed predictor panel trains its per-member
        calibrators on.
        """
        grid = self.sample_grid() if grid is None else np.asarray(grid, dtype=float)
        return [
            error_window(self.error_log, float(t), self.config.data_window, max_events)
            for t in grid
        ]

    def training_data(
        self,
        variables: list[str] | None = None,
        consumes: frozenset | set | None = None,
        grid: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
    ):
        """A :class:`~repro.prediction.base.TrainingData` bundle.

        ``consumes`` (a predictor's declared input modalities) controls
        which views are materialized: the feature/label view is always
        built (labels drive threshold calibration), the sequence views
        only when ``"sequences"`` is requested — extracting class-labeled
        training sequences and the grid-aligned calibration panel is not
        free.
        """
        from repro.prediction.base import SEQUENCES, TrainingData

        times, x, y_avail, y_fail = self.ubf_samples(variables=variables, grid=grid)
        data = TrainingData(x=x, y=y_avail, labels=y_fail)
        if consumes is not None and SEQUENCES in consumes:
            failure, nonfailure = self.error_sequences(rng=rng)
            data.sequences = self.panel_sequences(grid=times)
            data.failure_sequences = failure
            data.nonfailure_sequences = nonfailure
        return data

    # ------------------------------------------------------------------
    # Error sequences (detected error reporting, Fig. 6)
    # ------------------------------------------------------------------

    def error_sequences(
        self,
        rng: np.random.Generator | None = None,
        nonfailure_per_failure: float = 3.0,
        min_events: int = 2,
        max_events: int = 200,
    ) -> tuple[list[EventSequence], list[EventSequence]]:
        """Extract failure and non-failure error sequences.

        Failure sequences cover ``[t_f - lead - window, t_f - lead)`` for
        each failure ``t_f`` (deduplicated so bursts of SLA breaches do not
        produce near-identical sequences).  Non-failure sequences are drawn
        from periods with no failure within the window plus lead time plus
        a safety margin.
        """
        cfg = self.config
        rng = rng or np.random.default_rng(cfg.seed + 917)
        failure_seqs: list[EventSequence] = []
        last_taken = -np.inf
        for t_f in self.failure_times:
            if t_f - last_taken < cfg.data_window:
                continue  # burst of breaches -> one sequence
            start = t_f - cfg.lead_time - cfg.data_window
            end = t_f - cfg.lead_time
            if start < cfg.warmup:
                continue
            records = self.error_log.window(start, end)[:max_events]
            if len(records) < min_events:
                continue
            failure_seqs.append(
                EventSequence(
                    times=[r.time for r in records],
                    message_ids=[r.message_id for r in records],
                    label=True,
                    origin=start,
                )
            )
            last_taken = t_f

        margin = cfg.scp.sla_window
        n_nonfailure = int(round(nonfailure_per_failure * max(len(failure_seqs), 1)))
        nonfailure_seqs: list[EventSequence] = []
        failure_times = np.asarray(self.failure_times)
        attempts = 0
        while len(nonfailure_seqs) < n_nonfailure and attempts < 50 * n_nonfailure:
            attempts += 1
            start = rng.uniform(cfg.warmup, cfg.horizon - cfg.data_window - cfg.lead_time - margin)
            end = start + cfg.data_window
            # Quiet requirement: no failure from window start until after lead.
            danger_start, danger_end = start, end + cfg.lead_time + margin
            if failure_times.size and np.any(
                (failure_times >= danger_start) & (failure_times <= danger_end)
            ):
                continue
            records = self.error_log.window(start, end)[:max_events]
            if len(records) < min_events:
                continue
            nonfailure_seqs.append(
                EventSequence(
                    times=[r.time for r in records],
                    message_ids=[r.message_id for r in records],
                    label=False,
                    origin=start,
                )
            )
        return failure_seqs, nonfailure_seqs


@dataclass(slots=True)
class _Episode:
    """One faultload activation's two events: its injector starts at the
    activation's start, and at its end the injector stops and ops restart
    the target."""

    engine: Engine
    system: SCPSystem
    injector: FaultInjector
    target: str
    downtime: float

    def begin(self) -> None:
        self.injector.start(self.engine)

    def finish(self) -> None:
        self.injector.stop()
        # Ops repair after the episode: brief restart clears state.
        self.system.restart_component(self.target, self.downtime)


@dataclass
class SimulationRun:
    """A prepared (but not yet executed) dataset simulation.

    Exposes the engine and system so callers -- notably the closed-loop
    PFM experiments -- can attach controllers before calling :meth:`run`.
    ``collector`` is ``None`` when the run monitors nothing.
    """

    config: DatasetConfig
    engine: Engine
    streams: RandomStreams
    system: SCPSystem
    store: TimeSeriesStore
    collector: PeriodicCollector | None
    faultload: FaultLoad
    noise_injectors: list[IntermittentErrorInjector]

    def run(self) -> TelecomDataset:
        """Execute the simulation to the horizon and collect the dataset."""
        self.system.start()
        if self.collector is not None:
            self.collector.start()
        for injector in self.noise_injectors:
            injector.start(self.engine)
        return self.finish()

    def finish(self) -> TelecomDataset:
        """Run a started simulation on to the horizon and collect the dataset.

        :meth:`run` ends here, and so does a copy of a started run
        (:func:`~repro.simulator.engine.copy_simulation`).  Only a run
        without a collector can be copied: gauges read through closures.
        """
        self.engine.run(until=self.config.horizon)
        self.system.sla.flush(self.config.horizon)
        if self.collector is not None:
            self.collector.stop()
        for injector in self.noise_injectors:
            injector.stop()
        return TelecomDataset(
            config=self.config,
            store=self.store,
            system=self.system,
            faultload=self.faultload,
        )


def prepare_simulation(
    config: DatasetConfig | None = None,
    monitor: Iterable[str] | None = None,
) -> SimulationRun:
    """Build the engine, system, faultload and monitoring for one run.

    ``monitor`` names the gauge variables the run's collector samples
    every ``config.sample_interval``: ``None`` samples every gauge of
    :meth:`SCPSystem.all_gauges`, and an empty collection builds no
    collector, so the store stays empty.  A run that reads only its logs
    and SLA (an evaluation run) passes ``()``; a training run passes the
    variables it trains on.  Gauge reads draw no random numbers and
    change no state, so the scope changes only the store and the
    engine's event count.
    """
    config = config or DatasetConfig()
    engine = Engine()
    streams = RandomStreams(config.seed)
    system = SCPSystem(engine, streams, config.scp)
    store = TimeSeriesStore()
    gauges = system.all_gauges()
    if monitor is not None:
        wanted = set(monitor)
        unknown = sorted(wanted.difference(gauge.variable for gauge in gauges))
        if unknown:
            raise ConfigurationError(f"unknown gauges: {unknown}")
        gauges = [gauge for gauge in gauges if gauge.variable in wanted]
    collector = (
        PeriodicCollector(engine, store, gauges, interval=config.sample_interval)
        if gauges
        else None
    )

    # Background error noise on every component (never fails by itself).
    noise_injectors = [
        IntermittentErrorInjector(
            component, streams.get(f"noise:{component.name}"), period=250.0
        )
        for component in system.all_components()
    ]

    # Faultload over the service-logic tier.
    faultload = FaultLoad.generate(
        horizon=config.horizon,
        specs=config.fault_specs,
        targets=[c.name for c in system.containers],
        rng=streams.get("faultload"),
        min_gap=config.min_gap,
    )

    for activation in faultload:
        injector = _make_injector(
            activation.kind,
            system.component(activation.target),
            streams.fresh(f"inj:{activation.kind}:{activation.start:.0f}"),
        )
        episode = _Episode(
            engine,
            system,
            injector,
            activation.target,
            config.post_failure_repair_downtime,
        )
        engine.schedule_at(activation.start, episode.begin)
        engine.schedule_at(activation.end, episode.finish)

    return SimulationRun(
        config=config,
        engine=engine,
        streams=streams,
        system=system,
        store=store,
        collector=collector,
        faultload=faultload,
        noise_injectors=noise_injectors,
    )


def generate_dataset(config: DatasetConfig | None = None) -> TelecomDataset:
    """Run the SCP simulation and return the collected dataset."""
    return prepare_simulation(config).run()
