"""The declared layer DAG that PFM010 checks the import graph against.

The paper's thesis is that dependability is an *architectural* property;
the concrete architectural contract in this repo is a layering: telemetry
never imports the control loop it observes (observation must not
perturb), prediction never reaches the controller that consumes its
scores, the fleet orchestrates but is never imported by the layers it
runs.  Those rules only stay true if something checks them -- this
module loads the contract as **data** so the DAG reviews like
configuration, not like linter code.

The checked-in contract lives in ``pfmlint-layers.json`` at the repo
root (``--layers`` overrides the path); when the file is absent the
embedded :data:`DEFAULT_LAYER_DATA` -- kept byte-identical to the
checked-in file -- applies, so ``lint_paths`` works from any directory.

Format::

    {
      "version": 1,
      "layers": [
        {"name": "foundation", "modules": ["repro.errors"], "may_depend_on": []},
        {"name": "telemetry", "modules": ["repro.telemetry"],
         "may_depend_on": ["foundation"]},
        ...
      ]
    }

- ``modules`` are dotted prefixes matched on package boundaries; the
  **longest** matching prefix assigns the layer, so
  ``repro.resilience.campaign`` can sit above ``repro.resilience``.
- ``may_depend_on`` lists layer names; the effective allowance is the
  transitive closure (allowing ``core`` implies everything ``core`` may
  itself depend on), so the declared file stays minimal.
- The declared layer graph must itself be acyclic -- a cycle in the
  contract means there is no layering to enforce, and loading raises
  :class:`LayerConfigError`.
- Modules matching no prefix are unconstrained (and invisible as
  *targets*): the contract covers exactly what it names.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

#: Default layer filename, looked up in the working directory.
DEFAULT_LAYERS_FILE = "pfmlint-layers.json"

LAYERS_VERSION = 1

#: The embedded contract for this repository (see module docstring);
#: kept in lockstep with the checked-in ``pfmlint-layers.json`` by
#: ``tests/devtools/test_layers.py``.
DEFAULT_LAYER_DATA: dict = {
    "version": 1,
    "layers": [
        {
            "name": "foundation",
            "modules": [
                "repro.atomicfile",
                "repro.errors",
                "repro.rng",
                "repro.version",
                "repro.reporting",
            ],
            "may_depend_on": [],
        },
        {
            "name": "telemetry",
            "modules": ["repro.telemetry"],
            "may_depend_on": ["foundation"],
        },
        {
            "name": "simulator",
            "modules": ["repro.simulator"],
            "may_depend_on": ["foundation"],
        },
        {
            "name": "markov",
            "modules": ["repro.markov"],
            "may_depend_on": ["foundation"],
        },
        {
            "name": "system",
            "modules": [
                "repro.telecom",
                "repro.faults",
                "repro.monitoring",
                "repro.actions",
            ],
            "may_depend_on": ["foundation", "simulator", "telemetry"],
        },
        {
            "name": "prediction",
            "modules": ["repro.prediction"],
            "may_depend_on": ["foundation", "markov", "system", "telemetry"],
        },
        {
            "name": "reliability",
            "modules": ["repro.reliability"],
            "may_depend_on": ["foundation", "markov", "prediction"],
        },
        {
            "name": "resilience",
            "modules": ["repro.resilience"],
            "may_depend_on": ["foundation", "telemetry", "system"],
        },
        {
            "name": "fleet",
            "modules": ["repro.fleet"],
            "may_depend_on": [
                "foundation",
                "telemetry",
                "system",
                "resilience",
            ],
        },
        {
            "name": "core",
            "modules": ["repro.core"],
            "may_depend_on": [
                "foundation",
                "telemetry",
                "simulator",
                "markov",
                "system",
                "prediction",
                "reliability",
                "resilience",
                "fleet",
            ],
        },
        {
            "name": "campaign",
            "modules": ["repro.resilience.campaign"],
            "may_depend_on": ["core"],
        },
        {
            "name": "interface",
            "modules": ["repro", "repro.cli", "repro.devtools"],
            "may_depend_on": ["campaign", "core"],
        },
    ],
}


class LayerConfigError(ValueError):
    """The layer file is malformed or its declared graph has a cycle."""


@dataclass(frozen=True)
class LayerConfig:
    """A validated layer contract with closure-expanded allowances."""

    names: tuple[str, ...]
    prefixes: tuple[tuple[str, str], ...]  # (module_prefix, layer) sorted
    allowed: dict  # layer -> frozenset of transitively allowed layers
    source: str  # where the contract came from (path or "<default>")

    def layer_of(self, module: str) -> str | None:
        """Longest-prefix layer assignment on dotted boundaries."""
        best: str | None = None
        best_len = -1
        for prefix, layer in self.prefixes:
            if module == prefix or module.startswith(prefix + "."):
                if len(prefix) > best_len:
                    best, best_len = layer, len(prefix)
        return best

    def may_depend(self, layer: str, target: str) -> bool:
        return target == layer or target in self.allowed[layer]


def _close_over(declared: dict[str, set[str]]) -> dict[str, frozenset]:
    """Transitive closure of the declared layer DAG; rejects cycles."""
    closed: dict[str, frozenset] = {}

    def visit(layer: str, trail: tuple[str, ...]) -> frozenset:
        if layer in closed:
            return closed[layer]
        if layer in trail:
            cycle = " -> ".join(trail + (layer,))
            raise LayerConfigError(f"layer dependency cycle: {cycle}")
        acc: set[str] = set()
        for dep in sorted(declared[layer]):
            acc.add(dep)
            acc |= visit(dep, trail + (layer,))
        closed[layer] = frozenset(acc)
        return closed[layer]

    for layer in sorted(declared):
        visit(layer, ())
    return closed


def parse_layer_data(data: dict, source: str = "<data>") -> LayerConfig:
    """Validate raw layer JSON into a :class:`LayerConfig`."""
    if data.get("version") != LAYERS_VERSION:
        raise LayerConfigError(
            f"unsupported layers version {data.get('version')!r} in {source}"
        )
    entries = data.get("layers")
    if not isinstance(entries, list) or not entries:
        raise LayerConfigError(f"{source}: 'layers' must be a non-empty list")
    names: list[str] = []
    prefixes: list[tuple[str, str]] = []
    declared: dict[str, set[str]] = {}
    for entry in entries:
        name = entry.get("name")
        if not name or name in declared:
            raise LayerConfigError(
                f"{source}: missing or duplicate layer name {name!r}"
            )
        modules = entry.get("modules") or []
        if not modules:
            raise LayerConfigError(f"{source}: layer {name!r} lists no modules")
        names.append(name)
        declared[name] = set(entry.get("may_depend_on") or [])
        for prefix in modules:
            prefixes.append((prefix, name))
    for layer, deps in sorted(declared.items()):
        unknown = sorted(deps - set(names))
        if unknown:
            raise LayerConfigError(
                f"{source}: layer {layer!r} depends on unknown {unknown}"
            )
    seen_prefixes: set[str] = set()
    for prefix, _layer in prefixes:
        if prefix in seen_prefixes:
            raise LayerConfigError(
                f"{source}: module prefix {prefix!r} assigned twice"
            )
        seen_prefixes.add(prefix)
    return LayerConfig(
        names=tuple(names),
        prefixes=tuple(sorted(prefixes)),
        allowed=_close_over(declared),
        source=source,
    )


def load_layers(path: str | None = None) -> LayerConfig:
    """Load the layer contract from ``path``/CWD, else the embedded default.

    An explicitly named file must exist; the conventional
    ``pfmlint-layers.json`` falls back to :data:`DEFAULT_LAYER_DATA`
    when absent.
    """
    explicit = path is not None
    path = path or DEFAULT_LAYERS_FILE
    if not os.path.exists(path):
        if explicit:
            raise LayerConfigError(f"layers file not found: {path}")
        return parse_layer_data(DEFAULT_LAYER_DATA, "<default>")
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise LayerConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_layer_data(data, path)
