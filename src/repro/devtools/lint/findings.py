"""Finding records and the per-module analysis context.

A :class:`Finding` is one violation at one source location.  Its
:meth:`~Finding.fingerprint` deliberately excludes the line number, so a
baselined finding keeps matching after unrelated edits move it around --
only the rule (at its current version), the file, and the offending
source text identify it.  The rule *version* is part of the identity on
purpose: tightening a rule bumps its ``version``, which changes every
fingerprint it emits and therefore invalidates its baseline entries --
a stale baseline can never absorb a finding produced by a stricter
check than the one that recorded it.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    snippet: str = ""
    rule_version: int = 1

    def fingerprint(self) -> str:
        """Line-number-independent identity used by the baseline.

        Two findings share a fingerprint iff they are the same rule *at
        the same rule version*, in the same file, on identical
        (whitespace-normalized) source text.  Duplicates are legal; the
        baseline counts them.
        """
        normalized = " ".join(self.snippet.split())
        payload = f"{self.rule}:v{self.rule_version}|{self.path}|{normalized}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def location(self) -> str:
        """``path:line:col`` -- the clickable prefix of a report line."""
        return f"{self.path}:{self.line}:{self.col}"

    def to_json_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "rule_version": self.rule_version,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint(),
        }


#: Node types that open a function scope.
FUNCTION_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


@dataclass
class ModuleContext:
    """Everything a rule needs to analyse one module.

    The tree is walked once, here.  :attr:`nodes` lists every node in
    :func:`ast.walk` order (breadth first, the module first), and
    :attr:`scoped_nodes` pairs each with its enclosing function
    definitions, outermost first (empty at module and class level).  The
    rules and :func:`~repro.devtools.lint.project.build_module_summary`
    iterate these lists instead of walking the tree again.
    """

    path: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)
    nodes: list[ast.AST] = field(init=False, repr=False)
    scoped_nodes: list[tuple[ast.AST, tuple[ast.AST, ...]]] = field(
        init=False, repr=False
    )

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()
        # The list is its own FIFO queue: the loop reaches each appended
        # child in turn, which is exactly ast.walk's order.
        scoped: list[tuple[ast.AST, tuple[ast.AST, ...]]] = [(self.tree, ())]
        for node, functions in scoped:
            if isinstance(node, FUNCTION_DEFS):
                functions = (*functions, node)
            for child in ast.iter_child_nodes(node):
                scoped.append((child, functions))
        self.scoped_nodes = scoped
        self.nodes = [node for node, _functions in scoped]

    def snippet(self, node: ast.AST) -> str:
        """The stripped source line a node starts on (best effort)."""
        lineno = getattr(node, "lineno", 0)
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a Finding anchored at ``node``."""
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
            snippet=self.snippet(node),
        )
