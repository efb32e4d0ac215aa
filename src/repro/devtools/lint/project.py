"""The project-wide semantic model behind pfmlint's inter-procedural rules.

The per-file engine (:mod:`repro.devtools.lint.engine`) sees one module
at a time, so it can only flag faults that are syntactically local.  The
repo's hardest invariants are not local: a simulator step that calls a
helper in another module which calls ``time.perf_counter()`` is exactly
as wall-clock-coupled as a direct call, but no single file shows it.

This module closes that gap in two stages:

1. :func:`build_module_summary` extracts a compact **summary** of one
   module -- its imports (with top-level/lazy distinction), name
   bindings, classes and bases, and per-function facts (direct calls,
   wall-clock and unseeded-RNG sources, values that cannot cross a
   pickle boundary).  Summaries are plain dicts and lists.
2. :class:`ProjectModel` assembles all summaries into an **import
   graph** and a conservative **call graph**, and offers the
   reachability queries the PFM010--PFM013 rules are written against.

Soundness limits (documented, deliberate -- see docs/static-analysis.md):

- Call edges are resolved by *name*, through import bindings, same-module
  definitions, one level of re-export chasing, ``self.method`` within a
  class hierarchy, and locals assigned from a constructor visible in the
  same function.  Dynamic dispatch through arbitrary attributes,
  ``getattr``, callables stored in containers, and monkey-patching are
  invisible; the graph *under*-approximates those and never invents
  edges that cannot be named.
- Only ``def``-reachable code is modelled; module-level statements are
  folded into a pseudo-function ``<module>``.
- Nested functions are folded into their enclosing top-level function or
  method: a closure's calls are attributed to the function that created
  it, which over-approximates (the closure may never run) but keeps
  taint conservative.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.devtools.lint.findings import ModuleContext
from repro.devtools.lint.rules import dotted_name

#: Wall-clock call names (mirrors PFM002, shared by PFM011).
WALL_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
    }
)
DATETIME_CALLS = ("now", "utcnow", "today")

#: np.random attributes that construct generators rather than draw.
RNG_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "BitGenerator",
        "SeedSequence",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
        "MT19937",
    }
)

#: Keyword arguments at pool sinks documented to stay in the parent.
PARENT_SIDE_KWARGS = frozenset({"progress"})


def is_wall_call(name: str) -> bool:
    """Whether a dotted call name reads the host wall clock."""
    if name in WALL_CALLS:
        return True
    parts = name.split(".")
    return parts[-1] in DATETIME_CALLS and any(
        p in ("datetime", "date") for p in parts[:-1]
    )


def is_unseeded_rng_call(name: str, call: ast.Call, imports_random: bool) -> bool:
    """Whether a call draws from global/unseeded random state.

    Covers the legacy ``np.random.<draw>`` module API, stdlib
    ``random.<draw>`` (when the module is imported), and a bare
    ``default_rng()`` with no seed -- each produces a stream no master
    seed controls.
    """
    parts = name.split(".")
    if (
        len(parts) == 3
        and parts[0] in ("np", "numpy")
        and parts[1] == "random"
        and parts[2] not in RNG_CONSTRUCTORS
    ):
        return True
    if (
        imports_random
        and len(parts) == 2
        and parts[0] == "random"
        and parts[1] != "Random"
    ):
        return True
    if parts[-1] == "default_rng" and not call.args and not call.keywords:
        return True
    return False


def is_pool_sink(name: str) -> bool:
    """Whether a dotted call name is a process-boundary seam (PFM006/013)."""
    parts = name.split(".")
    if parts[-1] == "run_fleet":
        return True
    if parts[-1] == "submit" and len(parts) > 1:
        return True
    if parts[-1] == "map" and len(parts) > 1:
        base = parts[-2].lower()
        return "pool" in base or "executor" in base
    return False


def module_name_for_path(file_path) -> str | None:
    """Dotted module name, by climbing ``__init__.py`` package markers.

    ``src/repro/fleet/spec.py`` -> ``repro.fleet.spec`` because ``fleet``
    and ``repro`` carry ``__init__.py`` and ``src`` does not.  A
    free-standing ``script.py`` is its own top-level module name, and an
    ``__init__.py`` names (at least) its own directory.
    """
    import os

    path = os.path.abspath(str(file_path))
    if not path.endswith(".py"):
        return None
    parts: list[str] = []
    base = os.path.basename(path)[:-3]
    if base != "__init__":
        parts.append(base)
    directory = os.path.dirname(path)
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parts.append(os.path.basename(directory))
        parent = os.path.dirname(directory)
        if parent == directory:
            break
        directory = parent
    if not parts:
        # __init__.py (or bare .py) outside any package: not importable.
        return None
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# Per-module summary extraction (phase 1)
# ----------------------------------------------------------------------


def _resolve_relative(module: str | None, is_package: bool, level: int,
                      target: str | None) -> str | None:
    """Absolute module for a ``from ... import`` with ``level`` dots."""
    if level == 0:
        return target
    if module is None:
        return None
    base = module.split(".") if is_package else module.split(".")[:-1]
    if level - 1 > len(base):
        return None
    if level > 1:
        base = base[: len(base) - (level - 1)]
    prefix = ".".join(base)
    if target:
        return f"{prefix}.{target}" if prefix else target
    return prefix or None


class _FunctionFacts:
    """Mutable collector for one top-level function or method."""

    def __init__(self, lineno: int) -> None:
        self.lineno = lineno
        self.calls: list[tuple[str, int]] = []
        self.wall: list[tuple[str, int]] = []
        self.rng: list[tuple[str, int]] = []
        self.sinks: list[dict] = []
        self.unpicklable_locals: list[tuple[str, int]] = []
        self.ctor_locals: list[tuple[str, str, int]] = []
        self.returns_unpicklable = False

    def to_dict(self) -> dict:
        return {
            "lineno": self.lineno,
            "calls": [list(c) for c in self.calls],
            "wall": [list(c) for c in self.wall],
            "rng": [list(c) for c in self.rng],
            "sinks": self.sinks,
            "unpicklable_locals": [list(c) for c in self.unpicklable_locals],
            "ctor_locals": [list(c) for c in self.ctor_locals],
            "returns_unpicklable": self.returns_unpicklable,
        }


def build_module_summary(
    module_ctx: ModuleContext,
    module: str | None,
    suppressions: dict[int, set[str]] | None = None,
) -> dict:
    """Extract the semantic summary of one module.

    ``module`` is its dotted name (None outside a package).
    ``suppressions`` (line -> suppressed rule ids, from
    :func:`repro.devtools.lint.engine.parse_suppressions`) sanctions
    impure *sources*: a wall-clock call on a line carrying a PFM002 or
    PFM011 suppression does not taint its callers, because the
    suppression already declares it deliberate wall accounting.  Same
    for RNG sources with PFM001/PFM012.
    """
    suppressions = suppressions or {}
    path = module_ctx.path
    is_package = path.replace("\\", "/").endswith("__init__.py")

    def sanctioned(lineno: int, rules: tuple[str, ...]) -> bool:
        on_line = suppressions.get(lineno, set())
        return "ALL" in on_line or any(r in on_line for r in rules)

    imports: list[dict] = []
    bindings: dict[str, str] = {}
    imports_random = False

    # Imports inside function bodies are lazy (cycle-breaking idiom):
    # recorded with toplevel=False so the layer check ignores them while
    # call resolution still sees the bindings they create.
    for node, functions in module_ctx.scoped_nodes:
        toplevel = not functions
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    imports_random = True
                imports.append(
                    {
                        "module": alias.name,
                        "names": None,
                        "lineno": node.lineno,
                        "toplevel": toplevel,
                    }
                )
                if alias.asname:
                    bindings[alias.asname] = alias.name
                else:
                    bindings[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            target = _resolve_relative(module, is_package, node.level, node.module)
            if target is None:
                continue
            names = [[a.name, a.asname or a.name] for a in node.names]
            imports.append(
                {
                    "module": target,
                    "names": names,
                    "lineno": node.lineno,
                    "toplevel": toplevel,
                }
            )
            for a in node.names:
                if a.name != "*":
                    bindings[a.asname or a.name] = f"{target}.{a.name}"

    functions: dict[str, _FunctionFacts] = {}
    classes: dict[str, dict] = {}
    module_unpicklable: list[str] = []

    def collect_body(facts: _FunctionFacts, body: list[ast.stmt],
                     local_unpicklable: set[str], nested_defs: set[str]) -> None:
        """Walk statements, folding nested defs into ``facts``."""
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested_defs.add(stmt.name)
                collect_body(facts, stmt.body, local_unpicklable, nested_defs)
                continue
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                if isinstance(stmt.value, ast.Lambda):
                    facts.returns_unpicklable = True
                elif isinstance(stmt.value, ast.Name) and (
                    stmt.value.id in local_unpicklable
                    or stmt.value.id in nested_defs
                ):
                    facts.returns_unpicklable = True
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    value = stmt.value
                    if isinstance(value, ast.Lambda):
                        local_unpicklable.add(target.id)
                        facts.unpicklable_locals.append(
                            (target.id, stmt.lineno)
                        )
                    elif isinstance(value, ast.Name) and (
                        value.id in local_unpicklable
                        or value.id in nested_defs
                    ):
                        local_unpicklable.add(target.id)
                        facts.unpicklable_locals.append(
                            (target.id, stmt.lineno)
                        )
                    elif isinstance(value, ast.Call):
                        callee = dotted_name(value.func)
                        if callee:
                            facts.ctor_locals.append(
                                (target.id, callee, stmt.lineno)
                            )
            for node in ast.walk(stmt):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                facts.calls.append((name, node.lineno))
                if is_wall_call(name) and not sanctioned(
                    node.lineno, ("PFM002", "PFM011")
                ):
                    facts.wall.append((name, node.lineno))
                if is_unseeded_rng_call(name, node, imports_random) and (
                    not sanctioned(node.lineno, ("PFM001", "PFM012"))
                ):
                    facts.rng.append((name, node.lineno))
                if is_pool_sink(name):
                    facts.sinks.append(
                        {
                            "fn": name,
                            "lineno": node.lineno,
                            "args": [
                                arg.id if isinstance(arg, ast.Name) else None
                                for arg in node.args
                            ],
                            "kwargs": {
                                kw.arg: kw.value.id
                                for kw in node.keywords
                                if kw.arg is not None
                                and isinstance(kw.value, ast.Name)
                            },
                        }
                    )

    module_facts = _FunctionFacts(lineno=1)
    module_locals: set[str] = set()
    module_nested: set[str] = set()
    for stmt in module_ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts = _FunctionFacts(lineno=stmt.lineno)
            collect_body(facts, stmt.body, set(), set())
            functions[stmt.name] = facts
        elif isinstance(stmt, ast.ClassDef):
            methods: dict[str, int] = {}
            for member in stmt.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    facts = _FunctionFacts(lineno=member.lineno)
                    collect_body(facts, member.body, set(), set())
                    functions[f"{stmt.name}.{member.name}"] = facts
                    methods[member.name] = member.lineno
            bases = []
            for base in stmt.bases:
                base_name = dotted_name(base)
                if base_name:
                    bases.append(base_name)
            classes[stmt.name] = {
                "lineno": stmt.lineno,
                "bases": bases,
                "methods": methods,
            }
        else:
            # Module-level statements fold into the "<module>" pseudo-fn.
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name) and isinstance(
                    stmt.value, ast.Lambda
                ):
                    module_unpicklable.append(target.id)
            collect_body(module_facts, [stmt], module_locals, module_nested)
    functions["<module>"] = module_facts

    return {
        "module": module,
        "path": path,
        "is_package": is_package,
        "imports": imports,
        "bindings": bindings,
        "functions": {
            name: facts.to_dict() for name, facts in sorted(functions.items())
        },
        "classes": dict(sorted(classes.items())),
        "module_unpicklable": sorted(set(module_unpicklable)),
    }


# ----------------------------------------------------------------------
# The assembled project model (phase 2)
# ----------------------------------------------------------------------


@dataclass
class CallSite:
    """One resolved call edge, anchored at the caller's source line."""

    caller: str
    callee: str
    lineno: int


@dataclass
class ImportChain:
    """A shortest module chain ``start -> ... -> target`` with the line
    of the first hop's import statement (where the finding anchors)."""

    modules: list[str]
    lineno: int

    def render(self) -> str:
        return " -> ".join(self.modules)


@dataclass
class ProjectModel:
    """Import graph + call graph over every analyzed module."""

    modules: dict[str, dict] = field(default_factory=dict)
    layers: object | None = None  # LayerConfig, attached by the engine

    # -- construction --------------------------------------------------

    def add(self, summary: dict) -> None:
        module = summary.get("module")
        if module:
            self.modules[module] = summary

    def finalize(self) -> None:
        """Build derived indexes; call after all summaries are added."""
        self._import_edges: dict[str, list[tuple[str, int]]] = {}
        for module in sorted(self.modules):
            summary = self.modules[module]
            edges: dict[str, int] = {}
            for imp in summary["imports"]:
                if not imp["toplevel"]:
                    continue
                for target in self._concrete_targets(imp):
                    if target != module and target not in edges:
                        edges[target] = imp["lineno"]
            self._import_edges[module] = sorted(edges.items())

        # Class ancestry (transitive, name-resolved across modules).
        self._ancestors: dict[str, set[str]] = {}
        for module in sorted(self.modules):
            for cls in sorted(self.modules[module]["classes"]):
                self._resolve_ancestors(f"{module}::{cls}")

        # Resolved call graph.
        self._call_edges: dict[str, list[CallSite]] = {}
        self._reverse_edges: dict[str, list[CallSite]] = {}
        for fkey in self.function_keys():
            module, qualname = fkey.split("::", 1)
            facts = self.modules[module]["functions"][qualname]
            sites: list[CallSite] = []
            seen: set[tuple[str, int]] = set()
            for name, lineno in facts["calls"]:
                callee = self.resolve_call(module, qualname, name)
                if callee is None or callee == fkey:
                    continue
                if (callee, lineno) in seen:
                    continue
                seen.add((callee, lineno))
                sites.append(CallSite(fkey, callee, lineno))
            sites.sort(key=lambda s: (s.lineno, s.callee))
            self._call_edges[fkey] = sites
            for site in sites:
                self._reverse_edges.setdefault(site.callee, []).append(site)
        for callers in self._reverse_edges.values():
            callers.sort(key=lambda s: (s.caller, s.lineno))

    def _concrete_targets(self, imp: dict) -> list[str]:
        """Model modules an import record actually touches.

        ``from repro.fleet import spec`` imports the submodule
        ``repro.fleet.spec`` when one exists, the package attribute
        otherwise; plain ``import a.b.c`` depends on ``a.b.c`` (its
        deepest known prefix if the leaf is outside the model).  Parent
        packages are *not* edges: importing any submodule executes
        every enclosing ``__init__`` at runtime regardless, so counting
        them would make the root package -- the interface layer that
        re-exports everything -- a dependency of all its own children.
        """
        targets: list[str] = []
        base = imp["module"]
        if imp["names"] is None:
            prefix_parts = base.split(".")
            for i in range(len(prefix_parts), 0, -1):
                prefix = ".".join(prefix_parts[:i])
                if prefix in self.modules:
                    targets.append(prefix)
                    break
        else:
            if base in self.modules:
                targets.append(base)
            for name, _alias in imp["names"]:
                sub = f"{base}.{name}"
                if sub in self.modules:
                    targets.append(sub)
        return targets

    # -- module-level queries ------------------------------------------

    def import_edges(self, module: str) -> list[tuple[str, int]]:
        """Sorted ``(imported_module, lineno)`` top-level edges."""
        return self._import_edges.get(module, [])

    def import_chain(
        self, start: str, targets: set[str]
    ) -> ImportChain | None:
        """Shortest top-level import chain from ``start`` into ``targets``.

        BFS in sorted edge order, so the returned chain is deterministic
        for a given graph.
        """
        if start in targets:
            return ImportChain([start], 0)
        parent: dict[str, str] = {start: ""}
        first_line: dict[str, int] = {}
        queue = [start]
        while queue:
            current = queue.pop(0)
            for nxt, lineno in self.import_edges(current):
                if nxt in parent:
                    continue
                parent[nxt] = current
                first_line[nxt] = lineno
                if nxt in targets:
                    chain = [nxt]
                    while chain[-1] != start:
                        chain.append(parent[chain[-1]])
                    chain.reverse()
                    return ImportChain(chain, first_line[chain[1]])
                queue.append(nxt)
        return None

    # -- symbol resolution ---------------------------------------------

    def _split_symbol(self, dotted: str) -> tuple[str, str] | None:
        """``pkg.mod.Class.method`` -> (module, qualname), longest module
        prefix wins."""
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:i])
            if module in self.modules:
                return module, ".".join(parts[i:])
        return None

    def resolve_symbol(self, module: str, dotted: str, _depth: int = 0):
        """Resolve a dotted name used in ``module`` to a project symbol.

        Returns ``("function", fkey)``, ``("class", ckey)`` or ``None``.
        Chases one import binding plus up to 8 re-export hops.
        """
        if _depth > 8 or module not in self.modules:
            return None
        summary = self.modules[module]
        head, _, rest = dotted.partition(".")
        bound = summary["bindings"].get(head)
        if bound is not None:
            full = f"{bound}.{rest}" if rest else bound
        elif head in summary["functions"] or head in summary["classes"]:
            full = f"{module}.{dotted}"
        else:
            return None
        split = self._split_symbol(full)
        if split is None:
            return None
        target_module, qualname = split
        if qualname == "":
            return None
        target = self.modules[target_module]
        if qualname in target["classes"]:
            return ("class", f"{target_module}::{qualname}")
        if qualname in target["functions"]:
            return ("function", f"{target_module}::{qualname}")
        head2, _, rest2 = qualname.partition(".")
        if head2 in target["classes"] and rest2:
            if rest2 in target["classes"][head2]["methods"]:
                return ("function", f"{target_module}::{head2}.{rest2}")
            # inherited method: look it up the ancestry
            method = self.resolve_method(f"{target_module}::{head2}", rest2)
            if method:
                return ("function", method)
            return None
        if head2 in target["bindings"]:
            # re-export (e.g. package __init__): chase it
            return self.resolve_symbol(target_module, qualname, _depth + 1)
        return None

    def _resolve_ancestors(self, ckey: str) -> set[str]:
        if ckey in self._ancestors:
            return self._ancestors[ckey]
        self._ancestors[ckey] = set()  # cycle guard
        module, cls = ckey.split("::", 1)
        ancestors: set[str] = set()
        for base in self.modules[module]["classes"][cls]["bases"]:
            resolved = self.resolve_symbol(module, base)
            if resolved and resolved[0] == "class":
                ancestors.add(resolved[1])
                ancestors |= self._resolve_ancestors(resolved[1])
        self._ancestors[ckey] = ancestors
        return ancestors

    def ancestors(self, ckey: str) -> set[str]:
        """Transitive name-resolved base classes of ``module::Class``."""
        return self._ancestors.get(ckey, set())

    def resolve_method(self, ckey: str, method: str) -> str | None:
        """``module::Class`` + method name -> function key, walking the
        class then its ancestors in deterministic (sorted) order."""
        module, cls = ckey.split("::", 1)
        if method in self.modules[module]["classes"][cls]["methods"]:
            return f"{module}::{cls}.{method}"
        for ancestor in sorted(self.ancestors(ckey)):
            amod, acls = ancestor.split("::", 1)
            if method in self.modules[amod]["classes"][acls]["methods"]:
                return f"{amod}::{acls}.{method}"
        return None

    def resolve_call(
        self, module: str, caller_qualname: str, name: str
    ) -> str | None:
        """Resolve one raw call name inside a function to a function key."""
        head, _, rest = name.partition(".")
        if head == "self" and "." in caller_qualname and rest:
            cls = caller_qualname.split(".")[0]
            method, _, trailing = rest.partition(".")
            if trailing:
                return None
            return self.resolve_method(f"{module}::{cls}", method)
        # locals constructed in this function: var = ClassName(...); var.m()
        if rest:
            facts = self.modules[module]["functions"].get(caller_qualname)
            if facts:
                method, _, trailing = rest.partition(".")
                if not trailing:
                    for var, ctor, _lineno in facts["ctor_locals"]:
                        if var != head:
                            continue
                        resolved = self.resolve_symbol(module, ctor)
                        if resolved and resolved[0] == "class":
                            return self.resolve_method(resolved[1], method)
        resolved = self.resolve_symbol(module, name)
        if resolved and resolved[0] == "function":
            return resolved[1]
        if resolved and resolved[0] == "class":
            # Calling a class == running its constructor.
            return self.resolve_method(resolved[1], "__init__")
        return None

    # -- call-graph queries --------------------------------------------

    def function_keys(self) -> list[str]:
        """Every ``module::qualname`` in sorted order."""
        keys = []
        for module in sorted(self.modules):
            for qualname in sorted(self.modules[module]["functions"]):
                keys.append(f"{module}::{qualname}")
        return keys

    def calls_from(self, fkey: str) -> list[CallSite]:
        return self._call_edges.get(fkey, [])

    def function_facts(self, fkey: str) -> dict:
        module, qualname = fkey.split("::", 1)
        return self.modules[module]["functions"][qualname]

    def path_of(self, fkey_or_module: str) -> str:
        module = fkey_or_module.split("::", 1)[0]
        return self.modules[module]["path"]

    def taint_chains(self, source_field: str) -> dict[str, tuple]:
        """Backward reachability from impure sources over the call graph.

        ``source_field`` selects the per-function source list (``"wall"``
        or ``"rng"``).  Returns ``{function_key: (next_fkey | None,
        call_lineno, source_name)}`` for every function from which a
        source is reachable: ``next_fkey`` is the next hop toward the
        source (``None`` when the function contains the source call
        itself), ``call_lineno`` anchors the hop in the caller, and
        ``source_name`` is the impure call at the end of the chain.

        Deterministic: BFS layer by layer with sorted tie-breaking, so
        the chosen shortest chain never depends on dict order.
        """
        chains: dict[str, tuple] = {}
        frontier: list[str] = []
        for fkey in self.function_keys():
            sources = self.function_facts(fkey)[source_field]
            if sources:
                name, lineno = min(
                    ((n, ln) for n, ln in sources), key=lambda c: (c[1], c[0])
                )
                chains[fkey] = (None, lineno, name)
                frontier.append(fkey)
        while frontier:
            next_frontier: list[str] = []
            for fkey in sorted(frontier):
                source_name = chains[fkey][2]
                for site in self._reverse_edges.get(fkey, []):
                    if site.caller in chains:
                        continue
                    chains[site.caller] = (fkey, site.lineno, source_name)
                    next_frontier.append(site.caller)
            frontier = next_frontier
        return chains

    def render_chain(self, fkey: str, chains: dict[str, tuple]) -> str:
        """``mod::f -> mod2::g -> time.time()`` for a tainted function."""
        hops = [fkey]
        current = fkey
        while True:
            nxt, _lineno, source = chains[current]
            if nxt is None:
                hops.append(f"{source}()")
                break
            hops.append(nxt)
            current = nxt
        return " -> ".join(hops)


def build_project_model(summaries: list[dict]) -> ProjectModel:
    """Assemble and finalize a :class:`ProjectModel` from summaries."""
    model = ProjectModel()
    for summary in summaries:
        model.add(summary)
    model.finalize()
    return model
