"""The unified run description: one :class:`RunSpec` per shard.

A spec is the only description of a closed-loop or campaign run:
:func:`repro.core.run_closed_loop` takes one, the campaign turns its
:class:`~repro.resilience.campaign.CampaignConfig` into a grid of them,
and the CLI builds them from its flags.  It is one frozen value object:

- a **scenario** name selecting what kind of run a shard performs
  (``closed-loop``, ``no-pfm``, ``healthy-pfm``, or any PFM attack
  scenario from :func:`repro.resilience.campaign.default_scenarios`),
- one **master seed** from which the train / eval / injection seeds are
  derived (``seed``, ``seed + EVAL_SEED_OFFSET``,
  ``seed + INJECTION_SEED_OFFSET``), with optional explicit overrides for
  designs that share a training seed across evaluation faultloads,
- a declarative **predictor** name resolved through
  :func:`repro.prediction.make_predictor`, plus its parameters,
- the **horizon** and **telemetry** flags, and scenario **options**
  (``options["dataset"]`` is the base
  :class:`~repro.telecom.dataset.DatasetConfig`; every runner resolves
  it, with the seeds and horizon, through
  :func:`repro.core.experiment.resolve_spec`).

Specs are hashable, picklable and JSON-round-trippable; :meth:`RunSpec.key`
is the stable identity used by the shard ledger to decide, on resume,
which shards of a grid are already done.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace

from repro.errors import ConfigurationError

#: Hashable form of a parameter mapping: sorted ``(name, value)`` pairs.
ParamSet = tuple[tuple[str, object], ...]

#: Offsets of the master-seed derivation (``CampaignConfig`` uses them too).
EVAL_SEED_OFFSET = 1000
INJECTION_SEED_OFFSET = 2000

#: The scenario every plain train-then-evaluate comparison uses.
CLOSED_LOOP = "closed-loop"


def _paramset(params) -> ParamSet:
    """Normalize a dict / iterable of pairs into a canonical ParamSet."""
    if params is None:
        return ()
    if isinstance(params, dict):
        items = params.items()
    else:
        items = [(k, v) for k, v in params]
    normalized = []
    for key, value in sorted(items):
        normalized.append((str(key), _paramvalue(value)))
    return tuple(normalized)


def _paramvalue(value):
    """Normalize one param value into a hashable canonical form.

    Dicts become nested ParamSets and list/tuple *elements* are
    normalized recursively, so nested ensemble specs (lists of member
    dicts) stay hashable — ``RunSpec`` identity and the per-process
    training cache both key on these values.
    """
    if isinstance(value, dict):
        return _paramset(value)
    if isinstance(value, (list, tuple)):
        return tuple(_paramvalue(v) for v in value)
    return value


def _jsonable(value):
    """ParamSet values back into plain JSON types (tuples -> lists).

    A tuple reads back as a dict only when every element is a
    ``(str, value)`` pair — a nested ParamSet; anything else (including a
    list of nested ParamSets, e.g. ensemble members) stays a list.
    """
    if isinstance(value, tuple):
        if value and all(
            isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], str)
            for v in value
        ):
            return {k: _jsonable(v) for k, v in value}
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class RunSpec:
    """One shard of an experiment grid, described declaratively."""

    scenario: str = CLOSED_LOOP
    seed: int = 11
    predictor: str = "ubf"
    predictor_params: ParamSet = ()
    horizon: float = 2 * 86_400.0
    variables: tuple[str, ...] | None = None
    telemetry: bool = False
    #: Explicit seed overrides; ``None`` means "derive from the master
    #: seed".  Multi-seed sweeps that share one trained predictor pin
    #: ``train_seed`` and let ``eval_seed`` follow the master seed.
    train_seed: int | None = None
    eval_seed: int | None = None
    injection_seed: int | None = None
    #: Scenario-specific knobs (attack_mtbf, attack_duration, dataset
    #: overrides, ...), canonicalized like ``predictor_params``.
    options: ParamSet = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "predictor_params", _paramset(self.predictor_params))
        object.__setattr__(self, "options", _paramset(self.options))
        if self.variables is not None:
            object.__setattr__(self, "variables", tuple(self.variables))
        if not self.scenario:
            raise ConfigurationError("scenario must be a non-empty name")
        if not self.predictor:
            raise ConfigurationError("predictor must be a non-empty name")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------

    def seeds(self) -> dict[str, int]:
        """The resolved train / eval / injection seeds of this shard."""
        return {
            "train": self.train_seed if self.train_seed is not None else self.seed,
            "eval": (
                self.eval_seed
                if self.eval_seed is not None
                else self.seed + EVAL_SEED_OFFSET
            ),
            "injection": (
                self.injection_seed
                if self.injection_seed is not None
                else self.seed + INJECTION_SEED_OFFSET
            ),
        }

    def params(self) -> dict[str, object]:
        """Predictor parameters as a plain dict."""
        return {k: _jsonable(v) for k, v in self.predictor_params}

    def option(self, name: str, default=None):
        """Look up one scenario option (flat keys only)."""
        for key, value in self.options:
            if key == name:
                return _jsonable(value)
        return default

    def key(self) -> str:
        """Stable shard identity: readable prefix + content digest.

        Two specs share a key iff every field is equal, so the ledger can
        match completed shards across processes and sessions.
        """
        # default=repr: options may carry rich config objects (e.g. a full
        # DatasetConfig); their dataclass repr is deterministic, keeping
        # the key stable even when the spec is not JSON-round-trippable.
        doc = json.dumps(self.to_json_dict(), sort_keys=True, default=repr)
        digest = hashlib.sha256(doc.encode()).hexdigest()[:12]
        return f"{self.scenario}:{self.predictor}:seed{self.seed}:{digest}"

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON-ready document (round-trips via :meth:`from_json_dict`)."""
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "predictor": self.predictor,
            "predictor_params": {k: _jsonable(v) for k, v in self.predictor_params},
            "horizon": self.horizon,
            "variables": list(self.variables) if self.variables is not None else None,
            "telemetry": self.telemetry,
            "train_seed": self.train_seed,
            "eval_seed": self.eval_seed,
            "injection_seed": self.injection_seed,
            "options": {k: _jsonable(v) for k, v in self.options},
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RunSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(f"unknown RunSpec fields: {sorted(unknown)}")
        return cls(**doc)

    def json_roundtrips(self) -> bool:
        """Whether this spec is made of plain JSON values end to end.

        A spec carrying rich objects in ``options`` still *runs* (and
        still has a stable :meth:`key` — serialization falls back to
        ``repr``), but checkpoint/resume then depends on every such repr
        being byte-identical in the resuming process.  Deterministic
        dataclass reprs survive that; id-based reprs do not, and the
        shard re-runs on every resume (the ledger warns at append time —
        see :meth:`ShardLedger.append`).  Grids meant for resume should
        keep this predicate true by passing options as plain JSON types.
        """
        try:
            doc = json.loads(json.dumps(self.to_json_dict()))
            return RunSpec.from_json_dict(doc).key() == self.key()
        except (ValueError, TypeError, ConfigurationError):
            return False

    def replace(self, **changes) -> "RunSpec":
        """A copy with the given fields changed (specs are immutable)."""
        return replace(self, **changes)


def grid(
    scenarios,
    seeds,
    predictors=("ubf",),
    **common,
) -> list[RunSpec]:
    """The cross product ``scenario x seed x predictor`` as RunSpecs.

    ``predictors`` entries are names, ``(name, params)`` pairs, or nested
    spec dicts (``{"name": "noisy-or", "members": [...]}``, validated via
    :func:`repro.prediction.registry.normalize_predictor_spec`); ``common``
    fields (horizon, telemetry, options, ...) are shared by every spec.
    Duplicate specs collapse — the grid is a set.
    """
    specs: list[RunSpec] = []
    seen: set[str] = set()
    for scenario in scenarios:
        for seed in seeds:
            for predictor in predictors:
                if isinstance(predictor, str):
                    name, params = predictor, ()
                elif isinstance(predictor, dict):
                    from repro.prediction.registry import normalize_predictor_spec

                    normalized = normalize_predictor_spec(predictor)
                    name = normalized["name"]
                    params = {
                        k: v for k, v in normalized.items() if k != "name"
                    }
                else:
                    name, params = predictor
                spec = RunSpec(
                    scenario=scenario,
                    seed=int(seed),
                    predictor=name,
                    predictor_params=params,
                    **common,
                )
                if spec.key() not in seen:
                    seen.add(spec.key())
                    specs.append(spec)
    if not specs:
        raise ConfigurationError("empty grid: need >= 1 scenario, seed, predictor")
    return specs


@dataclass
class RunResult:
    """The picklable outcome of one shard.

    Every field is a plain value (or JSON-ready container) so results
    cross process boundaries and land in the shard ledger unchanged.
    Telemetry metrics travel as the registry *state*
    (:meth:`repro.telemetry.MetricsRegistry.to_state`), which the
    aggregator merges across shards.
    """

    spec: RunSpec
    availability: float
    failures: int
    baseline_availability: float | None = None
    baseline_failures: int | None = None
    mea_iterations: int = 0
    warnings_raised: int = 0
    warning_episodes: int = 0
    actions_taken: int = 0
    attack_episodes: int = 0
    outcome_matrix: dict = field(default_factory=dict)
    resilience: dict = field(default_factory=dict)
    online_quality: dict = field(default_factory=dict)
    telemetry_events: int = 0
    metrics_state: list | None = None
    artifacts: dict = field(default_factory=dict)
    #: Wall-clock cost of the shard.  Excluded from aggregates (it is the
    #: one legitimately nondeterministic field) but kept for timing
    #: reports and the fleet bench.
    wall_seconds: float = 0.0

    @property
    def unavailability_ratio(self) -> float:
        """Measured Eq. 14 ratio vs this shard's own baseline (if any)."""
        if self.baseline_availability is None:
            return float("nan")
        baseline_unavail = 1.0 - self.baseline_availability
        if baseline_unavail <= 0:
            return 1.0
        return (1.0 - self.availability) / baseline_unavail

    def metrics_registry(self):
        """Rebuild the shard's metric registry (empty when none shipped)."""
        from repro.telemetry.metrics import MetricsRegistry

        if self.metrics_state is None:
            return MetricsRegistry()
        return MetricsRegistry.from_state(self.metrics_state)

    def to_json_dict(self) -> dict:
        doc = {
            "spec": self.spec.to_json_dict(),
            "availability": self.availability,
            "failures": self.failures,
            "baseline_availability": self.baseline_availability,
            "baseline_failures": self.baseline_failures,
            "mea_iterations": self.mea_iterations,
            "warnings_raised": self.warnings_raised,
            "warning_episodes": self.warning_episodes,
            "actions_taken": self.actions_taken,
            "attack_episodes": self.attack_episodes,
            "outcome_matrix": self.outcome_matrix,
            "resilience": self.resilience,
            "online_quality": self.online_quality,
            "telemetry_events": self.telemetry_events,
            "metrics_state": self.metrics_state,
            "artifacts": self.artifacts,
            "wall_seconds": self.wall_seconds,
        }
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RunResult":
        doc = dict(doc)
        doc["spec"] = RunSpec.from_json_dict(doc["spec"])
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ConfigurationError(f"unknown RunResult fields: {sorted(unknown)}")
        return cls(**doc)
