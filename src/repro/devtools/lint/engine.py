"""The pfmlint engine: discover, analyze, assemble.

Inline suppression syntax (same line as the finding)::

    value = raw != 0.0  # pfmlint: disable=PFM003 -- exact-zero sentinel

Multiple rules separate with commas; ``disable=all`` silences every rule
on that line.  Text after the rule list (conventionally introduced with
``--``) is the human-readable justification and is ignored by the
parser, but reviewers should treat a suppression without one as a bug.

The engine runs in two phases:

1. **Per-file phase** -- parse each module, walk it once into a
   :class:`~repro.devtools.lint.findings.ModuleContext`, run the
   per-file rules over it, and, when the rule selection includes a
   project rule, extract the :mod:`~repro.devtools.lint.project`
   summary.  Files are analyzed in sorted path order.
2. **Project phase** -- assemble every summary into a
   :class:`~repro.devtools.lint.project.ProjectModel`, attach the layer
   contract, and run the project rules (PFM010--PFM013).  It runs only
   when the rule selection includes a project rule.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass, field, replace

from repro.devtools.lint import project_rules  # noqa: F401 -- registers PFM010-013
from repro.devtools.lint.findings import Finding, ModuleContext
from repro.devtools.lint.layers import LayerConfig, load_layers
from repro.devtools.lint.project import (
    build_module_summary,
    build_project_model,
    module_name_for_path,
)
from repro.devtools.lint.rules import Rule, all_rules

#: Rule id reserved for files the engine cannot parse at all.
PARSE_ERROR_RULE = "PFM000"

_SUPPRESS_RE = re.compile(
    r"#\s*pfmlint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

#: Directory names never descended into during discovery (along with
#: every dot-directory).
SKIP_DIRS = frozenset({"__pycache__", "node_modules"})


@dataclass
class LintResult:
    """Outcome of one lint run, before baseline filtering."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map 1-based line number -> rule ids suppressed on that line."""
    suppressions: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match:
            rules = {part.strip() for part in match.group(1).split(",")}
            suppressions[lineno] = {r.upper() for r in rules if r}
    return suppressions


def file_rules(rules: list[Rule]) -> list[Rule]:
    """The per-file subset of a rule selection."""
    return [rule for rule in rules if not rule.project]


def project_rule_list(rules: list[Rule]) -> list[Rule]:
    """The project-phase subset of a rule selection."""
    return [rule for rule in rules if rule.project]


def _apply_suppressions(
    findings: list[Finding], suppressions: dict[int, set[str]]
) -> tuple[list[Finding], int]:
    """Drop findings whose line carries a matching inline suppression."""
    kept: list[Finding] = []
    n_suppressed = 0
    for finding in findings:
        on_line = suppressions.get(finding.line, set())
        if finding.rule in on_line or "ALL" in on_line:
            n_suppressed += 1
        else:
            kept.append(finding)
    return kept, n_suppressed


def lint_source(
    source: str,
    path: str,
    rules: list[Rule] | None = None,
) -> tuple[list[Finding], int]:
    """Lint one module's source text (per-file rules only).

    Returns ``(findings, n_suppressed)``; ``path`` is used for scoped
    rules (e.g. PFM002) and reporting, the file itself is never read.
    Project rules need the whole project and are skipped here -- use
    :func:`lint_paths` for PFM010+.
    """
    rules = all_rules() if rules is None else rules
    findings, n_suppressed, _suppressions, _summary = analyze_source(
        source, path, module=None, rules=rules
    )
    return findings, n_suppressed


def analyze_source(
    source: str,
    path: str,
    module: str | None,
    rules: list[Rule],
) -> tuple[list[Finding], int, dict[int, set[str]], dict | None]:
    """Phase-1 analysis of one module: per-file findings + summary.

    Returns ``(findings, n_suppressed, suppressions, summary)``: the
    sorted per-file findings left after inline suppressions, how many
    those suppressions consumed, the suppression map of
    :func:`parse_suppressions`, and the module summary the project phase
    consumes (None when the source does not parse, or when ``rules``
    holds no project rule and so no project phase runs).
    """
    suppressions = parse_suppressions(source)
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        finding = Finding(
            path=path,
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1 if exc.offset is not None else 1,
            rule=PARSE_ERROR_RULE,
            message=f"file does not parse: {exc.msg}",
            snippet=(exc.text or "").strip(),
        )
        return [finding], 0, {}, None

    module_ctx = ModuleContext(path=path, source=source, tree=tree)
    findings: list[Finding] = []
    for rule in file_rules(rules):
        for finding in rule.check(module_ctx):
            findings.append(replace(finding, rule_version=rule.version))
    findings, n_suppressed = _apply_suppressions(findings, suppressions)
    findings.sort()
    summary = None
    if project_rule_list(rules):
        summary = build_module_summary(module_ctx, module, suppressions)
    return findings, n_suppressed, suppressions, summary


def iter_python_files(paths: list[str]) -> list[str]:
    """Every ``.py`` file under the given files/directories, sorted.

    Raises :class:`FileNotFoundError` for a path that does not exist, so
    a mistyped path fails the run instead of linting nothing.
    """
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        if not os.path.isdir(path):
            raise FileNotFoundError(f"no such file or directory: {path}")
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames if d not in SKIP_DIRS and not d.startswith(".")
            )
            for name in sorted(filenames):
                if name.endswith(".py"):
                    files.append(os.path.join(dirpath, name))
    return sorted(set(files))


def _display_path(file_path: str) -> str:
    """Posix-style path, relative to CWD when possible (stable baselines)."""
    path = file_path
    try:
        rel = os.path.relpath(file_path)
        if not rel.startswith(".."):
            path = rel
    except ValueError:  # different drive on Windows
        pass
    return path.replace(os.sep, "/")


def lint_paths(
    paths: list[str],
    rules: list[Rule] | None = None,
    *,
    layers: LayerConfig | str | None = None,
) -> LintResult:
    """Lint every Python file under ``paths`` (both phases).

    ``layers`` is a :class:`LayerConfig`, a path to one, or None for the
    conventional lookup.  Raises :class:`FileNotFoundError` for a path
    that does not exist.
    """
    rules = all_rules() if rules is None else rules
    result = LintResult()

    # Keyed by display path: that is the order files are analyzed and
    # their summaries assembled in, whatever order discovery returns.
    sources: dict[str, tuple[str, str]] = {}
    for file_path in iter_python_files(paths):
        with open(file_path, encoding="utf-8") as handle:
            sources[_display_path(file_path)] = (file_path, handle.read())

    summaries: list[dict] = []
    suppression_maps: dict[str, dict[int, set[str]]] = {}
    for display in sorted(sources):
        file_path, source = sources[display]
        findings, n_suppressed, suppressions, summary = analyze_source(
            source, display, module_name_for_path(file_path), rules
        )
        result.findings.extend(findings)
        result.suppressed += n_suppressed
        result.files_checked += 1
        suppression_maps[display] = suppressions
        if summary is not None and summary["module"]:
            summary["_lines"] = source.splitlines()
            summaries.append(summary)

    # Project phase: assemble the model, run PFM010+.
    proj_rules = project_rule_list(rules)
    if proj_rules:
        model = build_project_model(summaries)
        if isinstance(layers, LayerConfig):
            model.layers = layers
        else:
            model.layers = load_layers(layers)
        for rule in proj_rules:
            rule_findings = [
                replace(f, rule_version=rule.version)
                for f in rule.check_project(model)
            ]
            for finding in sorted(rule_findings):
                on_line = suppression_maps.get(finding.path, {}).get(
                    finding.line, set()
                )
                if finding.rule in on_line or "ALL" in on_line:
                    result.suppressed += 1
                else:
                    result.findings.append(finding)

    result.findings.sort()
    return result
