"""The pfmlint engine: discover, analyze (cached, parallel), assemble.

Inline suppression syntax (same line as the finding)::

    value = raw != 0.0  # pfmlint: disable=PFM003 -- exact-zero sentinel

Multiple rules separate with commas; ``disable=all`` silences every rule
on that line.  Text after the rule list (conventionally introduced with
``--``) is the human-readable justification and is ignored by the
parser, but reviewers should treat a suppression without one as a bug.

Since the inter-procedural rewrite the engine runs in two phases:

1. **Per-file phase** -- parse each module, run the per-file rules, and
   extract the :mod:`~repro.devtools.lint.project` summary.  Results are
   stored in a content-addressed cache keyed by ``sha256(path, source)``
   and the engine signature (analyzer version + selected rule versions), so
   a warm run re-analyzes only edited files.  With ``jobs > 1`` cache
   misses fan out over the fleet's executor seam
   (:func:`repro.fleet.executors.create_executor`); results are
   reassembled in sorted path order, so parallel findings are
   byte-identical to serial ones.
2. **Project phase** -- assemble every summary into a
   :class:`~repro.devtools.lint.project.ProjectModel`, attach the layer
   contract, and run the project rules (PFM010--PFM013).  This phase is
   cheap and always runs fresh; it is what a warm ``--changed-only`` run
   spends its time on.

``--changed-only`` restricts *reported* findings to files git considers
changed (working tree + optionally ``--changed-base REF``); the project
graph still covers every file, via warm cache entries, so an edit that
breaks an invariant *elsewhere* is attributed to the edited file's
chain when the chain starts there.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
from dataclasses import dataclass, field, replace

from repro.devtools.lint import project_rules  # noqa: F401 -- registers PFM010-013
from repro.devtools.lint.cache import (
    DEFAULT_CACHE_DIR,
    LintCache,
    engine_signature,
    file_digest,
    findings_from_entry,
    findings_to_entry,
)
from repro.devtools.lint.findings import Finding, ModuleContext
from repro.devtools.lint.layers import LayerConfig, load_layers
from repro.devtools.lint.project import (
    ANALYZER_VERSION,
    build_module_summary,
    build_project_model,
    module_name_for_path,
)
from repro.devtools.lint.rules import REGISTRY, Rule, all_rules

#: Rule id reserved for files the engine cannot parse at all.
PARSE_ERROR_RULE = "PFM000"

_SUPPRESS_RE = re.compile(
    r"#\s*pfmlint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
)

#: Directory names never descended into during discovery.
SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".venv", "node_modules", ".eggs", ".pfmlint-cache"}
)


@dataclass
class LintResult:
    """Outcome of one lint run, before baseline filtering."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Files git reported as changed when ``--changed-only`` applied;
    #: None for a full run (including the git-unavailable fallback).
    changed_files: int | None = None


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
    entry = analyze_source(source, path, module=None, rules=rules)
    return findings_from_entry(entry["findings"]), entry["suppressed"]


def analyze_source(
    source: str,
    path: str,
    module: str | None,
    rules: list[Rule],
) -> dict:
    """Phase-1 analysis of one module: per-file findings + summary.

    Returns the JSON-serializable cache entry shape::

        {"findings": [...], "suppressed": n,
         "suppressions": {"<line>": [rule ids]}, "summary": {...} | None}
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
        return {
            "findings": findings_to_entry([finding]),
            "suppressed": 0,
            "suppressions": {},
            "summary": None,
        }

    module_ctx = ModuleContext(path=path, source=source, tree=tree)
    findings: list[Finding] = []
    for rule in file_rules(rules):
        for finding in rule.check(module_ctx):
            findings.append(replace(finding, rule_version=rule.version))
    findings, n_suppressed = _apply_suppressions(findings, suppressions)
    findings.sort()
    summary = build_module_summary(tree, module, path, suppressions)
    return {
        "findings": findings_to_entry(findings),
        "suppressed": n_suppressed,
        "suppressions": {
            str(line): sorted(ids) for line, ids in sorted(suppressions.items())
        },
        "summary": summary,
    }


def _analyze_file_task(
    file_path: str, display_path: str, module: str | None, rule_ids: list[str]
) -> tuple[str, dict]:
    """Picklable worker: analyze one file by path (runs in pool workers)."""
    rules = [REGISTRY[rule_id]() for rule_id in rule_ids]
    with open(file_path, encoding="utf-8") as handle:
        source = handle.read()
    return display_path, analyze_source(source, display_path, module, rules)


def iter_python_files(paths: list[str]) -> list[str]:
    """Every ``.py`` file under the given files/directories, sorted."""
    files: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
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


# ----------------------------------------------------------------------
# Git integration for --changed-only
# ----------------------------------------------------------------------


def git_changed_files(base: str | None = None) -> set[str] | None:
    """Display paths of changed ``.py`` files, or None if git is unusable.

    Always includes working-tree and index changes (``git status
    --porcelain``); with ``base``, additionally everything that differs
    from ``base...HEAD`` (merge-base semantics, falling back to a plain
    two-dot diff for shallow clones) -- the PR-mode contract.
    """
    def run(args: list[str]) -> list[str] | None:
        try:
            proc = subprocess.run(
                ["git", *args], capture_output=True, text=True, check=False
            )
        except OSError:
            return None
        if proc.returncode != 0:
            return None
        return proc.stdout.splitlines()

    top = run(["rev-parse", "--show-toplevel"])
    if not top:
        return None
    root = top[0].strip()

    rel_paths: set[str] = set()
    status = run(["status", "--porcelain"])
    if status is None:
        return None
    for line in status:
        if len(line) < 4:
            continue
        entry = line[3:]
        if " -> " in entry:
            entry = entry.split(" -> ", 1)[1]
        rel_paths.add(entry.strip().strip('"'))
    if base:
        diff = run(["diff", "--name-only", f"{base}...HEAD"])
        if diff is None:
            diff = run(["diff", "--name-only", base])
        if diff is None:
            return None
        rel_paths.update(line.strip() for line in diff if line.strip())

    changed: set[str] = set()
    for rel in rel_paths:
        if rel.endswith(".py"):
            changed.add(_display_path(os.path.join(root, rel)))
    return changed


# ----------------------------------------------------------------------
# The orchestrated run
# ----------------------------------------------------------------------


def lint_paths(
    paths: list[str],
    rules: list[Rule] | None = None,
    *,
    jobs: int = 1,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
    project: bool = True,
    layers: LayerConfig | str | None = None,
    changed_only: bool = False,
    changed_base: str | None = None,
) -> LintResult:
    """Lint every Python file under ``paths`` (both phases).

    ``cache_dir=None`` disables the analysis cache; ``jobs > 1`` runs
    the per-file phase in a process pool (findings byte-identical to
    serial); ``project=False`` skips the inter-procedural phase;
    ``layers`` is a :class:`LayerConfig`, a path to one, or None for
    the conventional lookup; ``changed_only`` filters reported findings
    to git-changed files (vs ``changed_base`` when given).
    """
    rules = all_rules() if rules is None else rules
    result = LintResult()

    files = iter_python_files(paths)
    signature = engine_signature(ANALYZER_VERSION, rules)
    cache = LintCache(cache_dir) if cache_dir else None

    # Per-file metadata, all keyed/ordered by display path.
    meta: dict[str, tuple[str, str, str | None]] = {}
    for file_path in files:
        display = _display_path(file_path)
        with open(file_path, encoding="utf-8") as handle:
            source = handle.read()
        meta[display] = (file_path, source, module_name_for_path(file_path))

    entries: dict[str, dict] = {}
    misses: list[str] = []
    for display in sorted(meta):
        _file_path, source, _module = meta[display]
        if cache is not None:
            entry = cache.load(file_digest(display, source), signature)
            if entry is not None:
                entries[display] = entry
                continue
        misses.append(display)

    rule_ids = [rule.id for rule in rules]
    if misses and jobs > 1:
        # Lazy import: the executor seam lives two layers up and is only
        # needed for parallel runs (keeps `repro lint` start-up light).
        from repro.fleet.executors import create_executor

        executor = create_executor("process", jobs)
        try:
            futures = [
                executor.submit(
                    _analyze_file_task,
                    meta[display][0],
                    display,
                    meta[display][2],
                    rule_ids,
                )
                for display in misses
            ]
            for future in executor.as_completed():
                display, entry = future.result()
                entries[display] = entry
        finally:
            executor.shutdown()
    else:
        for display in misses:
            file_path, source, module = meta[display]
            entries[display] = analyze_source(source, display, module, rules)

    if cache is not None:
        result.cache_misses = len(misses)
        result.cache_hits = len(files) - len(misses)
        for display in misses:
            cache.save(
                file_digest(display, meta[display][1]), signature, entries[display]
            )

    # Assemble per-file results in sorted path order: byte-identical
    # regardless of cache state or worker completion order.
    findings: list[Finding] = []
    for display in sorted(entries):
        entry = entries[display]
        findings.extend(findings_from_entry(entry["findings"]))
        result.suppressed += entry["suppressed"]
        result.files_checked += 1

    # Project phase: assemble the model, run PFM010+.
    proj_rules = project_rule_list(rules)
    if project and proj_rules:
        summaries = []
        for display in sorted(entries):
            summary = entries[display]["summary"]
            if summary is not None and summary.get("module"):
                summary["_lines"] = meta[display][1].splitlines()
                summaries.append(summary)
        model = build_project_model(summaries)
        if isinstance(layers, LayerConfig):
            model.layers = layers
        else:
            model.layers = load_layers(layers)
        suppression_maps = {
            display: {
                int(line): set(ids)
                for line, ids in entries[display]["suppressions"].items()
            }
            for display in entries
        }
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
                    findings.append(finding)

    if changed_only:
        changed = git_changed_files(changed_base)
        if changed is not None:
            findings = [f for f in findings if f.path in changed]
            result.changed_files = len(changed & set(entries))

    findings.sort()
    result.findings = findings
    return result
