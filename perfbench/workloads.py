"""The benchmark's workloads: inputs made from the seed, the timed part,
and the checks on what the timed part produced.

Seed -> inputs.  The training trace is the same in every workload: seed
``TRAIN_SEED`` (11), ``horizon`` long (half a simulated day).  It stays
fixed because some seeds (1, 4, 15, 24 and 29 of 1-30) give a half-day
trace without any SLA failure, on which training rightly refuses to run
(``need at least one positive example``).  The workload seed drives the
rest:

- ``closed-loop``: the evaluation faultload (``eval_seed = seed``);
- ``noisy-or-panel``: the panel members' RNG and the held-out trace
  (``horizon / 2`` long, simulated during set-up);
- ``fleet-campaign``: the evaluation faultload (``eval_seed = seed``) and
  the PFM attack schedule (``injection_seed = seed + 2000``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import statistics
from time import perf_counter

import numpy as np

from repro.core.experiment import DEFAULT_VARIABLES, run_closed_loop, train_predictor
from repro.fleet import runner
from repro.fleet.aggregate import FleetReport
from repro.fleet.ledger import ShardLedger
from repro.fleet.shards import clear_training_cache
from repro.fleet.spec import RunSpec
from repro.prediction.base import PredictionBatch
from repro.prediction.registry import make_predictor
from repro.resilience.campaign import (
    NO_PFM,
    CampaignConfig,
    campaign_specs,
    default_scenarios,
)
from repro.telecom.dataset import DatasetConfig, prepare_simulation

TRAIN_SEED = 11

#: The criticality-aware Noisy-OR panel (members trained on one bundle).
PANEL_SPEC = {
    "name": "noisy-or",
    "members": ["ubf", "hsmm", "rate"],
    "criticality": {"hsmm": 0.8},
}
PANEL_SAMPLE_INTERVAL = 180.0

#: Attacked campaign scenarios run next to ``no-pfm`` and ``healthy-pfm``.
CAMPAIGN_SCENARIOS = ("predictor-exceptions", "all-fronts")


@dataclasses.dataclass
class Outcome:
    """What one repetition produced, checked."""

    #: Deterministic result document; its digest must repeat per seed.
    doc: dict
    ops: int
    failed_ops: int
    problems: list[str]
    availability: float
    #: Host time of one online decision and how many were measured.
    decision_us: float
    decision_samples: int


def digest(doc: dict) -> str:
    """SHA-256 of the canonical JSON form of a result document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _array_digest(values) -> str:
    raw = np.ascontiguousarray(values, dtype=float).tobytes()
    return hashlib.sha256(raw).hexdigest()


class ClosedLoop:
    """Train the default UBF, then replay one faultload without and with
    the PFM controller (``run_closed_loop``)."""

    name = "closed-loop"
    #: The untraced run times every ``MEACycle.step`` for ``decision_us``.
    times_mea_steps = True

    def setup(self, seed: int, horizon: float, workdir: str):
        return RunSpec(
            seed=seed, train_seed=TRAIN_SEED, eval_seed=seed, horizon=horizon
        )

    def run(self, spec):
        return run_closed_loop(spec=spec)

    def outcome(self, spec, result, mea_steps_us: list[float]) -> Outcome:
        problems = []
        cells = sum(cell["count"] for cell in result.outcome_matrix.values())
        if result.mea_iterations <= 0 or cells != result.mea_iterations:
            problems.append(
                f"outcome matrix holds {cells} predictions for "
                f"{result.mea_iterations} MEA iterations"
            )
        return Outcome(
            doc=dataclasses.asdict(result),
            ops=1,
            failed_ops=1 if problems else 0,
            problems=problems,
            availability=result.pfm_window_availability,
            decision_us=statistics.median(mea_steps_us) if mea_steps_us else 0.0,
            decision_samples=len(mea_steps_us),
        )


@dataclasses.dataclass
class PanelInputs:
    horizon: float
    predictor: object
    heldout: PredictionBatch
    heldout_availability: float


class NoisyOrPanel:
    """Train the Noisy-OR panel on the training trace, then score a
    held-out trace with ``score_batch``."""

    name = "noisy-or-panel"
    times_mea_steps = False

    def setup(self, seed: int, horizon: float, workdir: str) -> PanelInputs:
        config = DatasetConfig(
            seed=seed, horizon=horizon / 2, sample_interval=PANEL_SAMPLE_INTERVAL
        )
        heldout = prepare_simulation(config).run()
        times, x, _, _ = heldout.ubf_samples(variables=DEFAULT_VARIABLES)
        batch = PredictionBatch(x=x, sequences=heldout.panel_sequences(grid=times))
        return PanelInputs(
            horizon=horizon,
            predictor=make_predictor(PANEL_SPEC, rng=np.random.default_rng(seed)),
            heldout=batch,
            heldout_availability=heldout.system.sla.overall_availability(),
        )

    def run(self, inputs: PanelInputs):
        config = DatasetConfig(
            seed=TRAIN_SEED,
            horizon=inputs.horizon,
            sample_interval=PANEL_SAMPLE_INTERVAL,
        )
        predictor, training_scores = train_predictor(
            config, DEFAULT_VARIABLES, inputs.predictor
        )
        start = perf_counter()
        scores = predictor.score_batch(inputs.heldout)
        score_s = perf_counter() - start
        return predictor, training_scores, np.asarray(scores, dtype=float), score_s

    def outcome(self, inputs: PanelInputs, result, mea_steps_us) -> Outcome:
        predictor, training_scores, scores, score_s = result
        rows = len(inputs.heldout)
        problems = []
        if rows == 0 or scores.shape != (rows,):
            problems.append(f"{scores.shape} held-out scores for {rows} rows")
        elif not (
            np.all(np.isfinite(scores)) and scores.min() >= 0.0 and scores.max() <= 1.0
        ):
            problems.append("held-out scores are not finite probabilities in [0, 1]")
        return Outcome(
            doc={
                "rows": rows,
                "heldout_availability": inputs.heldout_availability,
                "threshold": float(predictor.threshold),
                "training_scores": _array_digest(training_scores),
                "heldout_scores": _array_digest(scores),
            },
            ops=1,
            failed_ops=1 if problems else 0,
            problems=problems,
            availability=inputs.heldout_availability,
            decision_us=score_s / rows * 1e6 if rows else 0.0,
            decision_samples=rows,
        )


@dataclasses.dataclass
class FleetInputs:
    specs: list
    store: str
    ledger: str
    workers: int


class FleetCampaign:
    """The PFM campaign as a fleet grid on the process backend, with a
    fresh artifact store and ledger, then its aggregate document."""

    name = "fleet-campaign"
    times_mea_steps = False

    def setup(self, seed: int, horizon: float, workdir: str) -> FleetInputs:
        scenarios = {s.name: s for s in default_scenarios()}
        config = CampaignConfig(
            train_seed=TRAIN_SEED,
            eval_seed=seed,
            injection_seed=seed + 2000,
            horizon=horizon,
            scenarios=[scenarios[name] for name in CAMPAIGN_SCENARIOS],
            telemetry=True,
        )
        # Forked workers inherit this process's training memo: keep it
        # empty so they load from the fresh store like any first run.
        clear_training_cache()
        return FleetInputs(
            specs=campaign_specs(config),
            store=os.path.join(workdir, "artifacts"),
            ledger=os.path.join(workdir, "ledger.jsonl"),
            workers=min(2, os.cpu_count() or 1),
        )

    def run(self, inputs: FleetInputs):
        report = runner.run_fleet(
            inputs.specs,
            backend="process",
            workers=inputs.workers,
            artifact_store=inputs.store,
            ledger_path=inputs.ledger,
        )
        return report, report.aggregate_json()

    def outcome(self, inputs: FleetInputs, result, mea_steps_us) -> Outcome:
        report, aggregate = result
        problems = []
        bad = {q["key"] for q in report.quarantined}
        if bad:
            problems.append(f"quarantined shards: {sorted(bad)}")
        committed = {r.spec.key(): r for r in report.results}
        loaded = ShardLedger(inputs.ledger).load()
        for spec in inputs.specs:
            key = spec.key()
            if key not in committed:
                bad.add(key)
                problems.append(f"shard {key} did not commit")
            elif key not in loaded or (
                loaded[key].to_json_dict() != committed[key].to_json_dict()
            ):
                bad.add(key)
                problems.append(f"ledger does not reproduce shard {key}")
        reloaded = FleetReport(results=list(loaded.values())).aggregate_json()
        if reloaded != aggregate:
            problems.append("ledger reload changes the aggregate")
            bad.update(spec.key() for spec in inputs.specs)

        pfm = [r for r in report.results if r.spec.scenario != NO_PFM]
        merged = report.merged_metrics()
        cycles = merged.histogram("span_wall_seconds", span="mea.cycle")
        return Outcome(
            doc=json.loads(aggregate),
            ops=len(inputs.specs),
            failed_ops=len(bad),
            problems=problems,
            availability=statistics.fmean(r.availability for r in pfm) if pfm else 0.0,
            decision_us=cycles.quantile(0.5) * 1e6 if cycles.count else 0.0,
            decision_samples=cycles.count,
        )


WORKLOADS = {w.name: w for w in (ClosedLoop(), NoisyOrPanel(), FleetCampaign())}
