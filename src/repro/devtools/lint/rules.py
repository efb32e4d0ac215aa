"""The pfmlint rule set: this repository's determinism invariants as code.

Every rule is a small AST pass registered in :data:`REGISTRY`.  The rules
encode invariants the test suite can only probe dynamically -- byte-equal
serial/parallel fleets, reproducible BENCH documents, picklable RunSpecs
-- as static checks that fire at the offending line.

Add a rule by subclassing :class:`Rule` and decorating with
:func:`register`; the docstring becomes the rule's documentation and is
asserted non-empty by the meta-tests.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.devtools.lint.findings import FUNCTION_DEFS, Finding, ModuleContext

#: Rule id -> rule class, in registration (= id) order.
REGISTRY: dict[str, type["Rule"]] = {}


def register(cls: type["Rule"]) -> type["Rule"]:
    """Class decorator adding a rule to :data:`REGISTRY` (ids unique)."""
    if cls.id in REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    REGISTRY[cls.id] = cls
    return cls


def all_rules() -> list["Rule"]:
    """Fresh instances of every registered rule, in id order."""
    return [REGISTRY[rule_id]() for rule_id in sorted(REGISTRY)]


class Rule:
    """Base class: one invariant, checked per module.

    Subclasses set :attr:`id` (``PFM###``), :attr:`title`, and
    :attr:`severity`, and implement :meth:`check` yielding
    :class:`Finding` objects.  The class docstring is the user-facing
    rule documentation (shown by ``--list-rules``).

    :attr:`version` is the rule's *semantic* version: bump it whenever
    the rule tightens (new patterns caught, scope widened).  The version
    participates in finding fingerprints, so a bump invalidates the
    rule's baseline entries -- a stale ``pfmlint-baseline.json`` entry
    can never mask a finding the stricter rule would now report.
    """

    id: str = ""
    title: str = ""
    severity: str = "error"
    version: int = 1
    #: True for project-phase rules (see ``project_rules.ProjectRule``).
    project: bool = False

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    @classmethod
    def doc(cls) -> str:
        """First docstring paragraph: the one-line rule summary."""
        text = (cls.__doc__ or "").strip()
        return text.split("\n\n")[0].replace("\n", " ")


# ----------------------------------------------------------------------
# AST helpers shared by the rules
# ----------------------------------------------------------------------


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_default_rng_call(node: ast.AST) -> bool:
    """A ``default_rng(...)`` call whose arguments are all literals."""
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    if name is None or name.split(".")[-1] != "default_rng":
        return False
    args_ok = all(isinstance(arg, ast.Constant) for arg in node.args)
    return args_ok and not node.keywords


# ----------------------------------------------------------------------
# PFM001 -- RNG discipline
# ----------------------------------------------------------------------


@register
class LegacyRandomRule(Rule):
    """Unseeded or legacy RNG use breaks run reproducibility.

    Flags the legacy ``np.random.<fn>`` module API (global, unseeded
    state shared across the whole process) and hard-coded
    ``default_rng(<literal>)`` fallbacks -- ``rng or default_rng(0)``
    expressions and call defaults -- in library code.  Two fleet shards
    that both fall back to seed zero silently share one stream, which is
    exactly the fault the fleet's master-seed derivation exists to
    prevent.  Require an explicit generator, derive one from the owning
    spec's master seed, or route an intentional default through
    :func:`repro.rng.ensure_rng`.
    """

    id = "PFM001"
    title = "unseeded or legacy RNG"

    #: np.random attributes that are constructors, not stream draws.
    ALLOWED = frozenset(
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

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        imports_random = any(
            isinstance(node, ast.Import)
            and any(alias.name == "random" for alias in node.names)
            for node in module.tree.body
        )
        for node in module.nodes:
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is not None:
                    parts = name.split(".")
                    if (
                        len(parts) == 3
                        and parts[0] in ("np", "numpy")
                        and parts[1] == "random"
                        and parts[2] not in self.ALLOWED
                    ):
                        yield module.finding(
                            self.id,
                            node,
                            f"legacy global numpy RNG '{name}'; draw from an "
                            "explicit np.random.Generator instead",
                        )
                    elif (
                        imports_random
                        and len(parts) == 2
                        and parts[0] == "random"
                        # random.Random(seed) constructs an independent,
                        # explicitly-seeded instance -- that is the fix,
                        # not the fault.
                        and parts[1] != "Random"
                    ):
                        yield module.finding(
                            self.id,
                            node,
                            f"stdlib global RNG '{name}'; draw from an "
                            "explicit np.random.Generator instead",
                        )
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                for value in node.values[1:]:
                    if _is_default_rng_call(value):
                        yield module.finding(
                            self.id,
                            value,
                            "hard-coded default_rng fallback; require an "
                            "explicit rng or use repro.rng.ensure_rng",
                        )
            if isinstance(node, FUNCTION_DEFS):
                defaults = list(node.args.defaults) + [
                    d for d in node.args.kw_defaults if d is not None
                ]
                for default in defaults:
                    if _is_default_rng_call(default):
                        yield module.finding(
                            self.id,
                            default,
                            "default_rng(...) as a parameter default shares "
                            "one hard-coded stream across callers; require "
                            "an explicit rng",
                        )


# ----------------------------------------------------------------------
# PFM002 -- wall-clock in sim-time paths
# ----------------------------------------------------------------------


@register
class WallClockRule(Rule):
    """Wall-clock reads inside simulated-time code paths.

    The simulator, the MEA cycle, and the sim-time half of telemetry all
    advance on the DES clock; a ``time.time()`` / ``perf_counter()`` /
    ``datetime.now()`` call there couples results to the host machine
    and breaks byte-identical serial/parallel fleet runs.  Scoped to
    ``repro/simulator/``, ``repro/core/mea.py`` and ``repro/telemetry/``;
    intentional wall-clock accounting (e.g. the wall half of a span's
    dual accounting) carries an inline suppression with a reason.
    """

    id = "PFM002"
    title = "wall-clock in sim-time path"

    #: Path fragments (posix) delimiting the sim-time scope.
    SCOPES = ("repro/simulator/", "repro/core/mea", "repro/telemetry/")

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

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        path = module.path.replace("\\", "/")
        if not any(scope in path for scope in self.SCOPES):
            return
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            is_wall = name in self.WALL_CALLS
            parts = name.split(".")
            is_datetime = (
                parts[-1] in self.DATETIME_CALLS
                and any(p in ("datetime", "date") for p in parts[:-1])
            )
            if is_wall or is_datetime:
                yield module.finding(
                    self.id,
                    node,
                    f"wall-clock call '{name}' in a sim-time module; use "
                    "the engine clock (engine.now), or suppress with a "
                    "reason if this is deliberate wall accounting",
                )


# ----------------------------------------------------------------------
# PFM003 -- float equality
# ----------------------------------------------------------------------


@register
class FloatEqualityRule(Rule):
    """``==`` / ``!=`` against a float literal.

    Exact float comparison is representation-dependent: a value that went
    through one extra rounding (e.g. the vectorized vs reference HSMM
    path) fails the comparison although the computation is equivalent.
    Use ``math.isclose`` / ``np.isclose``, compare against an integer
    sentinel, or suppress with a reason where exact equality is the
    point (e.g. detecting a byte-identical stuck gauge reading).
    """

    id = "PFM003"
    title = "float literal equality"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(
                node.ops, operands[:-1], operands[1:], strict=True
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for side in (left, right):
                    if isinstance(side, ast.Constant) and isinstance(
                        side.value, float
                    ):
                        yield module.finding(
                            self.id,
                            node,
                            f"exact comparison against float literal "
                            f"{side.value!r}; use math.isclose/np.isclose "
                            "or an integer sentinel",
                        )
                        break


# ----------------------------------------------------------------------
# PFM004 -- unordered iteration
# ----------------------------------------------------------------------


@register
class UnorderedIterationRule(Rule):
    """Iteration over a set in ordered context without ``sorted()``.

    Set iteration order depends on insertion history and hash
    randomization; when it feeds a ``for`` loop, a comprehension, or a
    ``list``/``tuple``/``join`` conversion, the downstream document
    (``to_json``, ledger rows, report tables) is no longer
    deterministic.  Wrap the set in ``sorted(...)`` -- the aggregator's
    byte-identical serial/parallel guarantee depends on it.
    """

    id = "PFM004"
    title = "unordered set iteration"

    ORDERED_SINKS = frozenset({"list", "tuple", "enumerate"})

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name in ("set", "frozenset")
        return False

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        def flag(node: ast.AST) -> Finding:
            return module.finding(
                self.id,
                node,
                "iterating a set in an ordered context; wrap it in "
                "sorted(...) so downstream output stays deterministic",
            )

        for node in module.nodes:
            if isinstance(node, ast.For) and self._is_set_expr(node.iter):
                yield flag(node.iter)
            if isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                for generator in node.generators:
                    # A set comprehension's own result is unordered anyway;
                    # only ordered collectors care about generator order.
                    if not isinstance(node, ast.SetComp) and self._is_set_expr(
                        generator.iter
                    ):
                        yield flag(generator.iter)
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                is_join = (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                )
                if (
                    (name in self.ORDERED_SINKS or is_join)
                    and node.args
                    and self._is_set_expr(node.args[0])
                ):
                    yield flag(node.args[0])


# ----------------------------------------------------------------------
# PFM005 -- mutable default arguments
# ----------------------------------------------------------------------


@register
class MutableDefaultRule(Rule):
    """Mutable default argument shared across calls.

    A ``list``/``dict``/``set`` default is evaluated once at ``def``
    time, so every call mutating it leaks state into the next --
    historically how one shard's warning episodes bled into another's.
    Default to ``None`` and construct inside the function body.
    """

    id = "PFM005"
    title = "mutable default argument"

    MUTABLE_CALLS = frozenset(
        {"list", "dict", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, FUNCTION_DEFS):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                mutable = isinstance(
                    default,
                    (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp),
                )
                if isinstance(default, ast.Call):
                    name = dotted_name(default.func)
                    if name is not None:
                        mutable = name.split(".")[-1] in self.MUTABLE_CALLS
                if mutable:
                    yield module.finding(
                        self.id,
                        default,
                        f"mutable default argument in {node.name}(); use "
                        "None and construct per call",
                    )


# ----------------------------------------------------------------------
# PFM006 -- unpicklable callables crossing process boundaries
# ----------------------------------------------------------------------


@register
class UnpicklableCallableRule(Rule):
    """Lambda or nested function handed to a process-pool seam.

    ``ProcessPoolExecutor.submit`` / ``.map`` and ``run_fleet`` pickle
    their callables; lambdas and functions defined inside another
    function are not picklable, so the process backend dies (or worse:
    works only on fork platforms, silently diverging from spawn).  Pass
    a module-level function instead.  ``progress=`` callbacks run in the
    parent and are exempt.
    """

    id = "PFM006"
    title = "unpicklable callable at process boundary"

    #: Keyword arguments documented to stay in the parent process.
    PARENT_SIDE_KWARGS = frozenset({"progress"})

    @classmethod
    def _is_pool_sink(cls, call: ast.Call) -> bool:
        name = dotted_name(call.func)
        if name is None:
            return False
        parts = name.split(".")
        if parts[-1] == "run_fleet":
            return True
        if parts[-1] == "submit" and len(parts) > 1:
            return True
        if parts[-1] == "map" and len(parts) > 1:
            base = parts[-2].lower()
            return "pool" in base or "executor" in base
        return False

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        nested = {
            node.name
            for node, functions in module.scoped_nodes
            if functions and isinstance(node, FUNCTION_DEFS)
        }
        for node in module.nodes:
            if not (isinstance(node, ast.Call) and self._is_pool_sink(node)):
                continue
            name = dotted_name(node.func) or ""
            is_submit_like = name.split(".")[-1] in ("submit", "map")
            candidates: list[tuple[ast.AST, str | None]] = [
                (arg, None) for arg in node.args
            ]
            candidates += [(kw.value, kw.arg) for kw in node.keywords]
            for value, kwarg in candidates:
                if kwarg in self.PARENT_SIDE_KWARGS:
                    continue
                if isinstance(value, ast.Lambda):
                    yield module.finding(
                        self.id,
                        value,
                        f"lambda passed to '{name}' cannot be pickled "
                        "across the process boundary; use a module-level "
                        "function",
                    )
                elif (
                    is_submit_like
                    and isinstance(value, ast.Name)
                    and value.id in nested
                ):
                    yield module.finding(
                        self.id,
                        value,
                        f"nested function '{value.id}' passed to '{name}' "
                        "cannot be pickled across the process boundary; "
                        "move it to module level",
                    )


# ----------------------------------------------------------------------
# PFM007 -- frozen-spec mutation
# ----------------------------------------------------------------------


@register
class FrozenSpecMutationRule(Rule):
    """Mutating frozen-spec fields outside ``dataclasses.replace``.

    ``RunSpec`` (and every ``@dataclass(frozen=True)``) is hashable and
    ledger-keyed by value; writing a field through
    ``object.__setattr__`` or plain attribute assignment desynchronizes
    the spec from its ledger key and corrupts resume.  Use
    ``spec.replace(...)`` / ``dataclasses.replace``.  Constructors
    (``__init__`` / ``__post_init__`` / ``__setstate__``) are exempt.
    """

    id = "PFM007"
    title = "frozen spec mutated in place"

    #: Methods allowed to call object.__setattr__ on self.
    CONSTRUCTOR_METHODS = frozenset(
        {"__init__", "__post_init__", "__new__", "__setstate__"}
    )
    #: Frozen types recognised even when defined in another module.
    KNOWN_FROZEN = frozenset({"RunSpec"})

    @staticmethod
    def _frozen_dataclasses(nodes: list[ast.AST]) -> set[str]:
        frozen: set[str] = set()
        for node in nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call) and dotted_name(
                    decorator.func
                ) in ("dataclass", "dataclasses.dataclass"):
                    for kw in decorator.keywords:
                        if (
                            kw.arg == "frozen"
                            and isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                        ):
                            frozen.add(node.name)
        return frozen

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        frozen_types = self.KNOWN_FROZEN | self._frozen_dataclasses(module.nodes)
        # Per enclosing function: names bound from FrozenType(...) so far.
        # A function's nodes keep ast.walk order within the module's list,
        # so each function sees its own statements as a walk of it would.
        frozen_names: dict[ast.AST, set[str]] = {}

        for node, functions in module.scoped_nodes:
            if isinstance(node, ast.Call):
                if dotted_name(node.func) == "object.__setattr__" and (
                    not functions
                    or functions[-1].name not in self.CONSTRUCTOR_METHODS
                ):
                    yield module.finding(
                        self.id,
                        node,
                        "object.__setattr__ outside a constructor bypasses "
                        "the frozen contract; use dataclasses.replace",
                    )
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            else:
                continue
            bound: list[str] = []
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                callee = dotted_name(node.value.func)
                if callee and callee.split(".")[-1] in frozen_types:
                    bound = [t.id for t in targets if isinstance(t, ast.Name)]
            for function in functions:
                frozen_names.setdefault(function, set()).update(bound)
            # One finding per target, however many enclosing functions
            # bound its name.
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and any(target.value.id in frozen_names[f] for f in functions)
                ):
                    yield module.finding(
                        self.id,
                        node,
                        f"assignment to field of frozen spec "
                        f"'{target.value.id}'; use .replace(...)",
                    )


# ----------------------------------------------------------------------
# PFM008 -- __all__ drift
# ----------------------------------------------------------------------


@register
class AllDriftRule(Rule):
    """``__all__`` out of sync with the module's actual public surface.

    The curated ``__all__`` lists are API documentation the tests pin;
    drift means an export that raises ``AttributeError`` on access or a
    public name that silently bypasses the curated surface.  Flags
    duplicate entries, names listed but never bound (unless the module
    lazy-loads through a module-level ``__getattr__``), and public
    top-level functions/classes missing from the list.
    """

    id = "PFM008"
    title = "__all__ drift"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        tree = module.tree
        all_node: ast.AST | None = None
        exported: list[str] = []
        for stmt in tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(value, (ast.List, ast.Tuple)) and all(
                        isinstance(e, ast.Constant) and isinstance(e.value, str)
                        for e in value.elts
                    ):
                        all_node = stmt
                        exported = [e.value for e in value.elts]
        if all_node is None:
            return

        bound: set[str] = set()
        has_getattr = False
        star_import = False
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bound.add(stmt.name)
                if stmt.name == "__getattr__":
                    has_getattr = True
            elif isinstance(stmt, ast.ClassDef):
                bound.add(stmt.name)
            elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
                for alias in stmt.names:
                    if alias.name == "*":
                        star_import = True
                    else:
                        bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                stmt_targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                for target in stmt_targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            bound.add(name_node.id)

        seen: set[str] = set()
        for name in exported:
            if name in seen:
                yield module.finding(
                    self.id, all_node, f"duplicate __all__ entry {name!r}"
                )
            seen.add(name)
            if (
                name not in bound
                and not has_getattr
                and not star_import
            ):
                yield module.finding(
                    self.id,
                    all_node,
                    f"__all__ exports {name!r} but the module never binds "
                    "it (and has no lazy __getattr__)",
                )

        for stmt in tree.body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                name = stmt.name
                if not name.startswith("_") and name not in seen:
                    yield module.finding(
                        self.id,
                        stmt,
                        f"public name {name!r} is not listed in __all__",
                    )


# ----------------------------------------------------------------------
# PFM009 -- swallowed exceptions
# ----------------------------------------------------------------------


@register
class SwallowedExceptionRule(Rule):
    """A broad ``except`` that silently discards the exception.

    A handler for ``Exception`` / ``BaseException`` / bare ``except``
    whose body neither re-raises, nor calls anything (no logging, no
    counter, no fallback computation), nor binds a value is a silent
    failure: exactly the *undetected error* state the paper's taxonomy
    warns turns into an unattributable downstream failure.  In a fleet
    worker it also destroys the failure-classification seam -- the
    supervisor cannot retry or quarantine a fault it never observes.

    Swallowing is occasionally the right call (a best-effort cache
    probe on a path that must never raise); say so with an inline
    ``# pfmlint: disable=PFM009 -- reason`` so the decision is visible
    and auditable instead of implicit.
    """

    id = "PFM009"
    title = "swallowed exception"

    #: Handler types broad enough to eat faults that were not anticipated.
    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True  # bare except
        names: list[ast.expr]
        if isinstance(handler.type, ast.Tuple):
            names = list(handler.type.elts)
        else:
            names = [handler.type]
        for node in names:
            name = dotted_name(node)
            if name is not None and name.split(".")[-1] in self._BROAD:
                return True
        return False

    def _handles(self, handler: ast.ExceptHandler) -> bool:
        """Whether the body observably reacts to the exception."""
        for stmt in handler.body:
            for node in ast.walk(stmt):
                if isinstance(
                    node,
                    (
                        ast.Raise,
                        ast.Call,
                        ast.Assign,
                        ast.AugAssign,
                        ast.AnnAssign,
                        ast.Return,
                        ast.Yield,
                        ast.YieldFrom,
                    ),
                ):
                    return True
        return False

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node):
                continue
            if self._handles(node):
                continue
            caught = (
                "bare except"
                if node.type is None
                else f"except {ast.unparse(node.type)}"
            )
            yield module.finding(
                self.id,
                node,
                f"{caught} swallows the exception silently (no raise, call, "
                "or assignment); record it, re-raise it, or suppress this "
                "line with a reason",
            )
