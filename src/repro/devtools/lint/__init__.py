"""pfmlint: determinism & dependability static analysis for the PFM stack.

An AST-based linter enforcing the repository's reproducibility
invariants -- the properties that make fleet runs byte-identical across
backends and BENCH documents reproducible.  Per-file rules:

========  ==========================================================
PFM001    unseeded / legacy RNG (global ``np.random`` API, hard-coded
          ``default_rng`` fallbacks in library code)
PFM002    wall-clock reads inside sim-time paths (simulator, MEA,
          telemetry sim spans)
PFM003    ``==`` / ``!=`` against float literals
PFM004    iteration over unordered sets feeding ordered output
PFM005    mutable default arguments
PFM006    unpicklable callables crossing process-pool boundaries
PFM007    frozen-spec field mutation outside ``dataclasses.replace``
PFM008    ``__all__`` drift versus the module's real public surface
PFM009    broad exception handlers swallowing fleet-fatal errors
========  ==========================================================

Project rules run over a whole-project import/call graph
(:mod:`~repro.devtools.lint.project`):

========  ==========================================================
PFM010    layering violations against the declared layer contract
          (``pfmlint-layers.json``)
PFM011    sim-time taint: sim-scoped functions transitively reaching
          wall-clock reads through helpers
PFM012    transitive unseeded-RNG reachability through helpers
PFM013    unpicklable values flowing into process-pool seams through
          intermediate assignments
========  ==========================================================

Every run analyzes every file it is given, serially and in sorted path
order, and writes no file it was not asked for.  Run it with ``python -m
repro.devtools.lint src`` (or ``repro.cli lint``); see
``docs/static-analysis.md`` for the rule catalogue, layer-contract
format, suppression syntax and baseline workflow.
"""

from repro.devtools.lint.baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    split_baselined,
    write_baseline,
)
from repro.devtools.lint.engine import (
    LintResult,
    lint_paths,
    lint_source,
    parse_suppressions,
)
from repro.devtools.lint.findings import Finding, ModuleContext
from repro.devtools.lint.layers import (
    DEFAULT_LAYERS_FILE,
    LayerConfig,
    LayerConfigError,
    load_layers,
)
from repro.devtools.lint.project import (
    ProjectModel,
    build_module_summary,
    build_project_model,
    module_name_for_path,
)
from repro.devtools.lint.project_rules import ProjectRule
from repro.devtools.lint.reporters import json_report, sarif_report, text_report
from repro.devtools.lint.rules import REGISTRY, Rule, all_rules, register

__all__ = [
    "DEFAULT_BASELINE",
    "DEFAULT_LAYERS_FILE",
    "Finding",
    "LayerConfig",
    "LayerConfigError",
    "LintResult",
    "ModuleContext",
    "ProjectModel",
    "ProjectRule",
    "REGISTRY",
    "Rule",
    "all_rules",
    "build_module_summary",
    "build_project_model",
    "json_report",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "load_layers",
    "module_name_for_path",
    "parse_suppressions",
    "register",
    "sarif_report",
    "split_baselined",
    "text_report",
    "write_baseline",
]
