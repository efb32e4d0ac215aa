"""Fleet aggregation: per-scenario distributions and merged telemetry.

The paper's case-study numbers (Sect. 3.3 metrics, Sect. 5 availability
deltas) are distributions over faultloads, not single draws.  The
aggregator turns a bag of shard results into exactly that: for every
scenario, the availability / failure-count / ratio distribution across
seeds with a mean and a bootstrap confidence interval, plus one merged
telemetry metrics registry across all shards.

Everything here is deterministic:

- shards are processed in sorted-key order (never completion order —
  the runner's in-order commit already hands them over that way),
- the bootstrap RNG is seeded from the scenario name and sample size by
  the same hash-derivation trick :class:`repro.simulator.RandomStreams`
  uses, and
- wall-clock values are excluded from :meth:`FleetReport.aggregate` (they
  live in :attr:`FleetReport.timing`),

so a serial run, a process-pool run, and a resumed run of the same grid
produce byte-identical aggregate documents.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.fleet.spec import RunResult
from repro.telemetry.metrics import Histogram, MetricsRegistry

#: Bootstrap resamples for the confidence intervals.
N_BOOTSTRAP = 500
CI_LEVEL = 0.95


def _derive_seed(key: str) -> int:
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "little")


def bootstrap_ci(
    values,
    seed_key: str,
    n_boot: int = N_BOOTSTRAP,
    level: float = CI_LEVEL,
) -> tuple[float, float]:
    """Deterministic percentile-bootstrap CI of the mean.

    The RNG is derived from ``seed_key`` and the sample size, so the same
    distribution always gets the same interval no matter which backend
    (or resume) produced it.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return (math.nan, math.nan)
    if arr.size == 1:
        return (float(arr[0]), float(arr[0]))
    rng = np.random.default_rng(_derive_seed(f"bootstrap:{seed_key}:{arr.size}"))
    idx = rng.integers(0, arr.size, size=(n_boot, arr.size))
    means = arr[idx].mean(axis=1)
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
    return (float(lo), float(hi))


def _distribution(values, seed_key: str) -> dict:
    arr = np.asarray(list(values), dtype=float)
    lo, hi = bootstrap_ci(arr, seed_key)
    return {
        "n": int(arr.size),
        "mean": float(arr.mean()) if arr.size else math.nan,
        "std": float(arr.std()) if arr.size else math.nan,
        "min": float(arr.min()) if arr.size else math.nan,
        "max": float(arr.max()) if arr.size else math.nan,
        "ci95": [lo, hi],
        "values": [float(v) for v in arr],
    }


@dataclass
class ScenarioAggregate:
    """The distribution one scenario produced across its shards."""

    scenario: str
    results: list[RunResult]  # sorted by spec key

    @property
    def seeds(self) -> list[int]:
        return [r.spec.seed for r in self.results]

    @property
    def availabilities(self) -> list[float]:
        return [r.availability for r in self.results]

    def to_json_dict(self) -> dict:
        rows = self.results
        doc = {
            "scenario": self.scenario,
            "shards": len(rows),
            "seeds": self.seeds,
            "availability": _distribution(
                self.availabilities, f"{self.scenario}:availability"
            ),
            "failures": _distribution(
                [r.failures for r in rows], f"{self.scenario}:failures"
            ),
            "warnings_raised": sum(r.warnings_raised for r in rows),
            "actions_taken": sum(r.actions_taken for r in rows),
            "attack_episodes": sum(r.attack_episodes for r in rows),
            "mea_iterations": sum(r.mea_iterations for r in rows),
            "telemetry_events": sum(r.telemetry_events for r in rows),
        }
        ratios = [
            r.unavailability_ratio
            for r in rows
            if r.baseline_availability is not None
        ]
        if ratios:
            doc["unavailability_ratio"] = _distribution(
                ratios, f"{self.scenario}:ratio"
            )
            doc["baseline_availability"] = _distribution(
                [r.baseline_availability for r in rows],
                f"{self.scenario}:baseline",
            )
        matrix: dict[str, dict[str, int]] = {}
        for r in rows:
            for outcome, cells in r.outcome_matrix.items():
                slot = matrix.setdefault(outcome, {})
                for cell, count in cells.items():
                    slot[cell] = slot.get(cell, 0) + int(count)
        if matrix:
            doc["outcome_matrix"] = matrix
        return doc


@dataclass
class FleetReport:
    """Everything one fleet run produced.

    ``results`` is sorted by spec key; ``timing`` holds the wall-clock
    story (backend, workers, per-shard and total seconds) and is the only
    part allowed to differ between backends.
    """

    results: list[RunResult]
    timing: dict = field(default_factory=dict)
    #: Shards whose infrastructure retry budget ran out, sorted by key:
    #: ``{"key", "error", "attempts", "source"}`` with source ``"run"``
    #: (this run) or ``"ledger"`` (skipped on resume).  Quarantine never
    #: raises — a poison shard must not abort the grid — but it is never
    #: silent either: it lives here, in :meth:`aggregate`, and in
    #: :meth:`summary`.
    quarantined: list = field(default_factory=list)
    #: The runner's own retry/restart/quarantine counters (supervisor
    #: telemetry, distinct from the shards' merged simulation metrics).
    fleet_metrics: MetricsRegistry | None = None

    def __post_init__(self) -> None:
        self.results = sorted(self.results, key=lambda r: r.spec.key())

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------

    def scenarios(self) -> list[ScenarioAggregate]:
        """Per-scenario groups, sorted by scenario name."""
        grouped: dict[str, list[RunResult]] = {}
        for result in self.results:
            grouped.setdefault(result.spec.scenario, []).append(result)
        return [
            ScenarioAggregate(scenario=name, results=grouped[name])
            for name in sorted(grouped)
        ]

    def scenario(self, name: str) -> ScenarioAggregate:
        for agg in self.scenarios():
            if agg.scenario == name:
                return agg
        raise KeyError(f"no shards for scenario {name!r}")

    def result_for(self, spec) -> RunResult:
        """The shard result for one spec (KeyError when missing)."""
        key = spec.key()
        for result in self.results:
            if result.spec.key() == key:
                return result
        raise KeyError(f"no result for spec {key}")

    def merged_metrics(self) -> MetricsRegistry:
        """All shard metric registries folded into one, in key order."""
        merged = MetricsRegistry()
        for result in self.results:
            if result.metrics_state is not None:
                merged.merge(result.metrics_registry())
        return merged

    # ------------------------------------------------------------------
    # Deterministic aggregate document
    # ------------------------------------------------------------------

    def aggregate(self) -> dict:
        """The backend-independent aggregate (no wall-clock values).

        This is the document ``tests/fleet/test_determinism_contract.py``
        compares byte for byte across backends, chaos, tracing and resume.
        """
        metrics = {}
        for (name, labels), metric in self.merged_metrics()._metrics.items():
            if "wall" in name:
                continue  # wall-clock: legitimately differs per backend
            label_part = ",".join(f"{k}={v}" for k, v in labels)
            key = name if not label_part else f"{name}{{{label_part}}}"
            if isinstance(metric, Histogram):
                metrics[key] = {
                    "count": metric.count,
                    "sum": metric.total,
                    "p50": metric.quantile(0.5),
                    "p99": metric.quantile(0.99),
                }
            else:
                value = metric.value
                metrics[key] = None if isinstance(value, float) and math.isnan(value) else value
        return {
            "shards": len(self.results),
            "scenarios": {
                agg.scenario: agg.to_json_dict() for agg in self.scenarios()
            },
            "metrics": metrics,
            # Quarantined shard keys are part of the scientific record: an
            # aggregate missing shards must say so.  (Keys only — attempt
            # counts and error text are infrastructure noise and live in
            # the report.)  Empty on any fully-clean run, so the
            # serial-vs-process byte-equality contract is unchanged.
            "quarantined": sorted({q["key"] for q in self.quarantined}),
        }

    def recovery_snapshot(self) -> dict:
        """The supervisor's recovery activity, as one JSON-ready dict.

        Combines the runner's ``recovery`` counters, the quarantine
        records, and the ``fleet_metrics`` registry counters (the
        Prometheus-facing names).  This is *operational* data — it
        legitimately differs between a clean run and a chaos run that
        absorbed worker kills — which is exactly why it lives outside
        :meth:`aggregate`'s byte-identity contract and is only folded
        into the document on request (``aggregate_json(
        include_recovery=True)``, the CLI's ``fleet --json`` view).
        """
        counters: dict[str, float] = {}
        if self.fleet_metrics is not None:
            for (name, labels), metric in sorted(
                self.fleet_metrics._metrics.items()
            ):
                label_part = ",".join(f"{k}={v}" for k, v in labels)
                key = name if not label_part else f"{name}{{{label_part}}}"
                counters[key] = metric.value
        return {
            "counters": counters,
            "quarantined_shards": self.quarantined,
            **{
                key: value
                for key, value in (self.timing.get("recovery") or {}).items()
            },
        }

    def prometheus(self) -> str:
        """Prometheus text exposition: shard metrics + recovery counters.

        The merged per-shard simulation metrics and the supervisor's
        ``fleet_*`` recovery counters rendered as one scrape document,
        so dashboards see restarts/retries/quarantines next to the
        workload they disturbed.
        """
        from repro.telemetry.exporters import prometheus_text

        text = prometheus_text(self.merged_metrics())
        if self.fleet_metrics is not None and len(self.fleet_metrics._metrics):
            text += prometheus_text(self.fleet_metrics)
        return text

    def aggregate_json(self, include_recovery: bool = False) -> str:
        """Canonical serialization of :meth:`aggregate` (sorted keys).

        The default document is the byte-identity contract (identical
        across backends, chaos, resume, tracing on/off).  With
        ``include_recovery=True`` a ``"recovery"`` section
        (:meth:`recovery_snapshot`) is added for operational views —
        those bytes legitimately vary with infrastructure weather.
        """
        doc = self.aggregate()
        if include_recovery:
            doc["recovery"] = self.recovery_snapshot()
        return json.dumps(doc, indent=2, sort_keys=True)

    # ------------------------------------------------------------------
    # Human-readable summary
    # ------------------------------------------------------------------

    def summary(self) -> str:
        lines = [
            f"fleet: {len(self.results)} shards "
            f"({self.timing.get('backend', '?')} backend, "
            f"{self.timing.get('workers', '?')} workers, "
            f"{self.timing.get('wall_seconds', 0.0):.1f}s wall"
            + (
                f", {self.timing['resumed_from_ledger']} resumed"
                if self.timing.get("resumed_from_ledger")
                else ""
            )
            + (
                f", {self.timing['chunks']} chunks of {self.timing['chunk_size']}"
                if self.timing.get("chunks")
                else ""
            )
            + (
                f", prewarmed {self.timing['prewarm']['unique_keys']} "
                "training configs"
                if self.timing.get("prewarm")
                else ""
            )
            + ")",
        ]
        recovery = self.timing.get("recovery") or {}
        if recovery.get("retries") or recovery.get("worker_restarts"):
            lines.append(
                f"recovery: {recovery.get('retries', 0)} retries, "
                f"{recovery.get('worker_restarts', 0)} worker restarts, "
                f"{recovery.get('infrastructure_failures', 0)} "
                "infrastructure failures absorbed"
            )
        for record in self.quarantined:
            lines.append(
                f"QUARANTINED {record['key']}: {record.get('error')} "
                f"(after {record.get('attempts')} attempts)"
            )
        lines += [
            (
                f"{'scenario':<24s} {'n':>3s} {'avail mean':>10s} "
                f"{'ci95':>19s} {'fail':>6s} {'warn':>6s} {'act':>5s}"
            ),
        ]
        for agg in self.scenarios():
            doc = agg.to_json_dict()
            avail = doc["availability"]
            lo, hi = avail["ci95"]
            lines.append(
                f"{agg.scenario:<24s} {doc['shards']:3d} {avail['mean']:10.4f} "
                f"[{lo:8.4f},{hi:8.4f}] {sum(r.failures for r in agg.results):6d} "
                f"{doc['warnings_raised']:6d} {doc['actions_taken']:5d}"
            )
        return "\n".join(lines)
