"""The inter-procedural pfmlint rules: PFM010 -- PFM013.

These rules run in the engine's *project phase*, against the assembled
:class:`~repro.devtools.lint.project.ProjectModel`, and express the
invariants a per-file pass cannot see: the layer DAG, transitive
wall-clock and RNG taint, and unpicklable values flowing through
assignments.

Each rule subclasses :class:`ProjectRule` and implements
:meth:`~ProjectRule.check_project`; findings anchor at a concrete
``(file, line)`` so the usual inline ``# pfmlint: disable=...``
suppressions and the fingerprint baseline apply unchanged.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.devtools.lint.findings import Finding
from repro.devtools.lint.project import (
    PARENT_SIDE_KWARGS,
    ProjectModel,
)
from repro.devtools.lint.rules import Rule, register


class ProjectRule(Rule):
    """A rule that needs the whole project, not one module.

    ``check`` (the per-module hook) is a no-op; the engine calls
    :meth:`check_project` once per run with the finalized model.
    Findings still carry per-file anchors, so suppressions and the
    baseline behave exactly as for per-file rules.
    """

    project = True

    def check(self, module) -> Iterable[Finding]:  # pragma: no cover - trivial
        return ()

    def check_project(self, model: ProjectModel) -> Iterable[Finding]:
        raise NotImplementedError

    @staticmethod
    def _finding(
        model: ProjectModel, rule: str, module: str, lineno: int, message: str
    ) -> Finding:
        """Anchor a finding at ``module``'s file, quoting the source line."""
        path = model.path_of(module)
        snippet = ""
        lines = model.modules[module].get("_lines")
        if lines and 1 <= lineno <= len(lines):
            snippet = lines[lineno - 1].strip()
        return Finding(
            path=path, line=lineno, col=1, rule=rule,
            message=message, snippet=snippet,
        )


def _module_in_scope(module: str, scopes: tuple[str, ...]) -> bool:
    """Dotted-prefix scope matching (``repro.core.mea`` matches itself)."""
    return any(
        module == scope or module.startswith(scope + ".") for scope in scopes
    )


# ----------------------------------------------------------------------
# PFM010 -- layering violations against the declared DAG
# ----------------------------------------------------------------------


@register
class LayeringRule(ProjectRule):
    """Module reaches a layer its own layer may not depend on.

    The layer DAG (``pfmlint-layers.json``, see docs/static-analysis.md)
    declares which layers may depend on which: telemetry must never
    import core/fleet/actions (observation must not perturb), prediction
    must never reach the controller, the fleet orchestrates layers that
    never import it back.  This rule walks the *top-level* import graph
    -- function-scoped lazy imports are the sanctioned cycle-breaking
    idiom and do not count -- and reports any module whose transitive
    imports land in a forbidden layer, with the offending import chain.
    One finding per (module, forbidden layer), anchored at the import
    statement that starts the shortest chain.
    """

    id = "PFM010"
    title = "layer DAG violation"
    version = 1

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        layers = model.layers
        if layers is None:
            return
        # Pre-group modules by layer for reachability targeting.
        layer_modules: dict[str, set[str]] = {}
        for module in sorted(model.modules):
            layer = layers.layer_of(module)
            if layer is not None:
                layer_modules.setdefault(layer, set()).add(module)

        for module in sorted(model.modules):
            layer = layers.layer_of(module)
            if layer is None:
                continue
            forbidden_layers = [
                name
                for name in layers.names
                if name != layer and not layers.may_depend(layer, name)
            ]
            for target_layer in forbidden_layers:
                targets = layer_modules.get(target_layer, set())
                if not targets:
                    continue
                chain = model.import_chain(module, targets)
                if chain is None or len(chain.modules) < 2:
                    continue
                yield self._finding(
                    model,
                    self.id,
                    module,
                    chain.lineno,
                    f"layer '{layer}' must not depend on layer "
                    f"'{target_layer}' but {module} reaches "
                    f"{chain.modules[-1]} via {chain.render()}; break the "
                    "chain or amend pfmlint-layers.json",
                )


# ----------------------------------------------------------------------
# PFM011 / PFM012 -- transitive taint over the call graph
# ----------------------------------------------------------------------


class _TaintRule(ProjectRule):
    """Shared machinery: flag scope functions whose call chains reach an
    impure source *through at least one call edge* (direct calls are the
    corresponding per-file rule's jurisdiction)."""

    SCOPES: tuple[str, ...] = ()
    SOURCE_FIELD = ""
    WHAT = ""
    FIX = ""

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        chains = model.taint_chains(self.SOURCE_FIELD)
        for fkey in model.function_keys():
            if fkey not in chains:
                continue
            module, qualname = fkey.split("::", 1)
            if not _module_in_scope(module, self.SCOPES):
                continue
            next_hop, lineno, source = chains[fkey]
            if next_hop is None:
                continue  # direct call: PFM001/PFM002 territory
            if _module_in_scope(next_hop.split("::", 1)[0], self.SCOPES) and (
                chains[next_hop][0] is not None
            ):
                # The callee is itself an in-scope transitive offender:
                # one finding at the deepest in-scope frame is enough.
                continue
            yield self._finding(
                model,
                self.id,
                module,
                lineno,
                f"{qualname} is on a {self.WHAT} path but transitively "
                f"calls '{source}' via {model.render_chain(fkey, chains)}; "
                f"{self.FIX}",
            )


@register
class SimTimeTaintRule(_TaintRule):
    """Sim-time code transitively reaches a wall-clock read.

    The inter-procedural generalization of PFM002: a simulator step, MEA
    cycle, or sim-time telemetry function that calls a helper (possibly
    in another module) which ends in ``time.time()`` /
    ``perf_counter()`` / ``datetime.now()`` is exactly as host-coupled
    as a direct call, and breaks byte-identical serial/parallel fleet
    runs just as surely.  Sources whose own line carries a PFM002/PFM011
    suppression (deliberate wall accounting, e.g. the wall half of a
    span) do not taint their callers.  Fires once per offending in-scope
    function, at the call that starts the impure chain.
    """

    id = "PFM011"
    title = "transitive wall-clock in sim-time path"
    version = 1

    SCOPES = ("repro.simulator", "repro.core.mea", "repro.telemetry")
    SOURCE_FIELD = "wall"
    WHAT = "sim-time"
    FIX = (
        "thread the engine clock through, or suppress the source line "
        "with a reason if this is deliberate wall accounting"
    )


@register
class RngTaintRule(_TaintRule):
    """Deterministic-scope code transitively reaches unseeded RNG.

    The inter-procedural generalization of PFM001: the simulator, the
    controller/MEA core, and the fleet must be bit-reproducible given a
    master seed, yet a helper chain ending in the legacy ``np.random``
    module API, stdlib ``random.<draw>``, or a bare ``default_rng()``
    (no seed) silently injects host entropy.  Sources whose line
    carries a PFM001/PFM012 suppression are considered sanctioned.
    Fires once per offending in-scope function, at the call that starts
    the chain.
    """

    id = "PFM012"
    title = "transitive unseeded RNG in deterministic path"
    version = 1

    SCOPES = ("repro.simulator", "repro.core", "repro.fleet")
    SOURCE_FIELD = "rng"
    WHAT = "deterministic"
    FIX = (
        "pass an explicit seeded Generator down the chain (derive it "
        "from the owning spec's master seed)"
    )


# ----------------------------------------------------------------------
# PFM013 -- unpicklable values flowing into process-pool seams
# ----------------------------------------------------------------------


@register
class UnpicklableFlowRule(ProjectRule):
    """Unpicklable value reaches a process-pool seam through assignments.

    The inter-procedural generalization of PFM006: a lambda bound to a
    local or module-level name, an alias of such a name, or the return
    value of a function that returns a lambda/nested function is just as
    unpicklable when it finally reaches ``run_fleet`` /
    ``Executor.submit`` / ``pool.map`` -- but the seam line itself looks
    innocent.  Tracks those flows through intermediate assignments
    (including across modules via imports and through calls to
    lambda-returning functions) and fires at the seam call.  ``progress=``
    callbacks run in the parent and are exempt, mirroring PFM006.
    """

    id = "PFM013"
    title = "unpicklable value flows into process seam"
    version = 1

    def check_project(self, model: ProjectModel) -> Iterator[Finding]:
        for fkey in model.function_keys():
            module, qualname = fkey.split("::", 1)
            facts = model.function_facts(fkey)
            if not facts["sinks"]:
                continue
            summary = model.modules[module]
            tainted: dict[str, str] = {}
            for name in summary["module_unpicklable"]:
                tainted[name] = "a module-level lambda"
            for var, lineno in facts["unpicklable_locals"]:
                tainted[var] = f"a lambda/nested function (line {lineno})"
            for var, ctor, lineno in facts["ctor_locals"]:
                resolved = model.resolve_symbol(module, ctor)
                if resolved and resolved[0] == "function":
                    target = model.function_facts(resolved[1])
                    if target["returns_unpicklable"]:
                        tainted[var] = (
                            f"the return of {resolved[1].replace('::', '.')} "
                            f"which returns a lambda/nested function "
                            f"(assigned line {lineno})"
                        )
            # names imported from another module's unpicklable bindings
            for name, bound in sorted(summary["bindings"].items()):
                split = model._split_symbol(bound)
                if split is None:
                    continue
                target_module, attr = split
                if attr in model.modules[target_module]["module_unpicklable"]:
                    tainted[name] = (
                        f"a module-level lambda imported from {target_module}"
                    )
            if not tainted:
                continue
            for sink in facts["sinks"]:
                passed: list[tuple[str, str]] = []
                for arg in sink["args"]:
                    if arg is not None and arg in tainted:
                        passed.append((arg, tainted[arg]))
                for kwarg, value in sorted(sink["kwargs"].items()):
                    if kwarg in PARENT_SIDE_KWARGS:
                        continue
                    if value in tainted:
                        passed.append((value, tainted[value]))
                for arg, origin in passed:
                    yield self._finding(
                        model,
                        self.id,
                        module,
                        sink["lineno"],
                        f"'{arg}' passed to '{sink['fn']}' is {origin} and "
                        "cannot cross the process boundary; use a "
                        "module-level function or a picklable callable "
                        "object",
                    )
