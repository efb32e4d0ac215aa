"""Declarative predictor construction: ``make_predictor(name, **params)``.

Fleet grids (and the CLI) name predictors as strings, so the mapping from
name to constructor lives in one registry instead of being re-spelled by
every entry point.  The class constructors remain the primary API; the
registry is a thin declarative veneer over them.

Built-in names (one per taxonomy branch the repo implements):

========  =========================================================
name      constructor
========  =========================================================
ubf       :class:`~repro.prediction.ubf.predictor.UBFPredictor`
          (fast online configuration: the exact network/wrapper
          sizes the closed-loop controller has always used)
mset      :class:`~repro.prediction.baselines.mset.MSETPredictor`
hsmm      :class:`~repro.prediction.hsmm.predictor.HSMMPredictor`
dft       :class:`~repro.prediction.baselines.dft.DispersionFrameTechnique`
eventset  :class:`~repro.prediction.baselines.eventset.EventSetPredictor`
trend     :class:`~repro.prediction.baselines.trend.TrendAnalysisPredictor`
rate      :class:`~repro.prediction.baselines.rate.ErrorRatePredictor`
failure-tracking  :class:`~repro.prediction.baselines.failure_tracking.FailureHistoryPredictor`
noisy-or  :class:`~repro.prediction.arbitration.NoisyOrArbitrator`
          (criticality-weighted Noisy-OR fusion of a member panel)
========  =========================================================

Stochastic predictors accept ``rng`` (a :class:`numpy.random.Generator`)
or ``seed``; deterministic ones ignore both, so grid code can pass a seed
uniformly.

Nested ensemble specs
---------------------

``make_predictor`` also accepts a *spec dict* instead of a name, so fleet
grids and the CLI can declare a fused panel in one JSON value::

    make_predictor({
        "name": "noisy-or",
        "members": ["ubf", {"name": "hsmm", "n_states": 5}, "trend"],
        "criticality": {"ubf": 1.0, "hsmm": 0.9, "trend": 0.5},
        "leak": 0.01,
    })

:func:`normalize_predictor_spec` canonicalizes and validates such specs
(members become dicts, aliases get uniqued) and the result round-trips
through JSON byte-identically, so specs can ride inside frozen fleet
``RunSpec`` params and ledgers.
"""

from __future__ import annotations

import json
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError

#: name -> factory(rng, **params).  Factories import lazily so pulling in
#: the registry does not load every predictor implementation.
_REGISTRY: dict[str, Callable] = {}


def register_predictor(name: str, factory: Callable, overwrite: bool = False) -> None:
    """Register ``factory(rng, **params)`` under ``name``.

    Downstream projects register their own predictors here to make them
    addressable from fleet grids and the CLI.
    """
    if not name:
        raise ConfigurationError("predictor name must be non-empty")
    if name in _REGISTRY and not overwrite:
        raise ConfigurationError(f"predictor {name!r} already registered")
    _REGISTRY[name] = factory


def available_predictors() -> list[str]:
    """Registered predictor names, sorted."""
    return sorted(_REGISTRY)


def make_predictor(name, *, rng=None, seed: int | None = None, **params):
    """Construct the predictor registered under ``name``.

    ``name`` may also be a nested spec dict (``{"name": ..., **params}``,
    see :func:`normalize_predictor_spec`); explicit keyword ``params``
    override same-named spec entries.

    ``rng`` wins over ``seed``; with neither, a fresh ``default_rng(0)``
    keeps construction deterministic.
    """
    if isinstance(name, dict):
        spec = dict(name)
        try:
            name = spec.pop("name")
        except KeyError:
            raise ConfigurationError(
                f"predictor spec has no 'name' key: {sorted(spec)}"
            ) from None
        spec.update(params)
        params = spec
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown predictor {name!r}; available: {available_predictors()}"
        ) from None
    if rng is None:
        rng = np.random.default_rng(0 if seed is None else seed)
    return factory(rng, **params)


def normalize_predictor_spec(spec) -> dict:
    """Canonicalize a predictor spec to a validated, JSON-able dict.

    Accepts a bare name string or a ``{"name": ..., **params}`` dict.
    Ensemble members are normalized recursively and member aliases are
    uniqued (a second ``"trend"`` member becomes ``"trend-2"``), so the
    criticality map always has unambiguous keys.  The result serializes
    with ``json.dumps`` byte-identically across round-trips — the
    property fleet ledgers rely on.
    """
    if isinstance(spec, str):
        spec = {"name": spec}
    if not isinstance(spec, dict):
        raise ConfigurationError(
            f"predictor spec must be a name or dict, got {type(spec).__name__}"
        )
    if "name" not in spec:
        raise ConfigurationError(f"predictor spec has no 'name' key: {sorted(spec)}")
    name = spec["name"]
    if name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown predictor {name!r}; available: {available_predictors()}"
        )
    out = {"name": name}
    for key in sorted(k for k in spec if k != "name"):
        if not isinstance(key, str):
            raise ConfigurationError(f"spec keys must be strings, got {key!r}")
        out[key] = spec[key]

    if "members" in out:
        members = out["members"]
        if not isinstance(members, (list, tuple)) or not members:
            raise ConfigurationError("'members' must be a non-empty list of specs")
        normalized = [normalize_predictor_spec(m) for m in members]
        aliases: list[str] = []
        for member in normalized:
            alias = member.get("alias", member["name"])
            if not isinstance(alias, str) or not alias:
                raise ConfigurationError(f"member alias must be a string: {alias!r}")
            if alias in aliases:
                n = 2
                while f"{alias}-{n}" in aliases:
                    n += 1
                alias = f"{alias}-{n}"
            member["alias"] = alias
            aliases.append(alias)
        out["members"] = normalized
        criticality = out.get("criticality", {})
        if isinstance(criticality, (list, tuple)) and not criticality:
            criticality = {}  # an empty map read back from RunSpec options
        if not isinstance(criticality, dict):
            raise ConfigurationError("'criticality' must be a {member: weight} dict")
        unknown = set(criticality) - set(aliases)
        if unknown:
            raise ConfigurationError(
                f"criticality map names unknown members {sorted(unknown)}; "
                f"panel members are {aliases}"
            )
        for member_name, weight in criticality.items():
            if not isinstance(weight, (int, float)) or not 0.0 <= weight <= 1.0:
                raise ConfigurationError(
                    f"criticality[{member_name!r}] must be in [0, 1], got {weight!r}"
                )
        out["criticality"] = {k: float(criticality[k]) for k in sorted(criticality)}

    try:
        json.dumps(out)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"predictor spec is not JSON-serializable: {exc}"
        ) from None
    return out


# ----------------------------------------------------------------------
# Built-in factories
# ----------------------------------------------------------------------


def _make_ubf(
    rng,
    n_kernels: int = 8,
    max_opt_iter: int = 15,
    n_rounds: int = 6,
    samples_per_round: int = 8,
    select_variables: bool = True,
    **params,
):
    # Defaults are the fast online configuration the closed-loop
    # controller trains when no predictor is named, so naming "ubf" in a
    # grid reproduces the historical runs exactly.
    from repro.prediction.ubf.network import UBFNetwork
    from repro.prediction.ubf.predictor import UBFPredictor
    from repro.prediction.ubf.pwa import ProbabilisticWrapper

    return UBFPredictor(
        network=UBFNetwork(n_kernels=n_kernels, max_opt_iter=max_opt_iter, rng=rng),
        wrapper=ProbabilisticWrapper(
            n_rounds=n_rounds, samples_per_round=samples_per_round, rng=rng
        ),
        select_variables=select_variables,
        rng=rng,
        **params,
    )


def _make_mset(rng, **params):
    from repro.prediction.baselines.mset import MSETPredictor

    return MSETPredictor(rng=rng, **params)


def _make_hsmm(rng, **params):
    from repro.prediction.hsmm.predictor import HSMMPredictor

    # HSMMPredictor seeds its own restarts; derive that seed from the
    # stream so one master seed still pins the whole construction.
    params.setdefault("seed", int(rng.integers(2**31 - 1)))
    return HSMMPredictor(**params)


def _make_dft(rng, **params):
    from repro.prediction.baselines.dft import DispersionFrameTechnique

    return DispersionFrameTechnique(**params)


def _make_eventset(rng, **params):
    from repro.prediction.baselines.eventset import EventSetPredictor

    return EventSetPredictor(**params)


def _make_trend(rng, **params):
    from repro.prediction.baselines.trend import TrendAnalysisPredictor

    return TrendAnalysisPredictor(**params)


def _make_rate(rng, **params):
    from repro.prediction.baselines.rate import ErrorRatePredictor

    return ErrorRatePredictor(**params)


def _make_failure_tracking(rng, **params):
    from repro.prediction.baselines.failure_tracking import FailureHistoryPredictor

    return FailureHistoryPredictor(**params)


def _make_noisy_or(
    rng,
    members=(),
    criticality: dict | None = None,
    leak: float = 0.01,
    **params,
):
    from repro.prediction.arbitration import NoisyOrArbitrator

    if params:
        raise ConfigurationError(
            f"unknown noisy-or spec keys: {sorted(params)}"
        )
    spec = normalize_predictor_spec(
        {
            "name": "noisy-or",
            "members": list(members),
            "criticality": dict(criticality or {}),
        }
    )
    panel = []
    for member in spec["members"]:
        member = dict(member)
        alias = member.pop("alias")
        # One child seed per member, drawn in panel order, so a single
        # master rng pins the whole nested construction deterministically.
        child_rng = np.random.default_rng(int(rng.integers(2**31 - 1)))
        panel.append((alias, make_predictor(member, rng=child_rng)))
    return NoisyOrArbitrator(
        panel,
        criticality=spec.get("criticality") or None,
        leak=leak,
    )


for _name, _factory in [
    ("ubf", _make_ubf),
    ("mset", _make_mset),
    ("hsmm", _make_hsmm),
    ("dft", _make_dft),
    ("eventset", _make_eventset),
    ("trend", _make_trend),
    ("rate", _make_rate),
    ("failure-tracking", _make_failure_tracking),
    ("noisy-or", _make_noisy_or),
]:
    register_predictor(_name, _factory)
