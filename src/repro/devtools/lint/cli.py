"""pfmlint command line: ``python -m repro.devtools.lint [paths ...]``.

Exit codes are stable API: 0 clean (or everything baselined), 1 new
findings, 2 usage error (argparse, a path that does not exist) or
configuration error (bad layer file, unknown rule id).  ``repro.cli
lint`` is a thin alias of this entry point.
"""

from __future__ import annotations

import argparse
import sys

from repro.devtools.lint.baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    split_baselined,
    write_baseline,
)
from repro.devtools.lint.engine import lint_paths
from repro.devtools.lint.layers import LayerConfigError
from repro.devtools.lint.reporters import (
    json_report,
    list_rules_text,
    sarif_report,
    text_report,
)
from repro.devtools.lint.rules import REGISTRY, all_rules

#: Exit codes (stable API, asserted by tests).
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfmlint",
        description=(
            "Determinism & dependability static analysis for the PFM stack"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help=f"baseline file (default: {DEFAULT_BASELINE}; missing = empty)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file: report every finding as new",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    parser.add_argument(
        "--select",
        default=None,
        help="comma-separated rule ids to run (default: all); a selection "
        "of per-file rules only (PFM001-PFM009) skips the project phase",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="stdout report format (default: text)",
    )
    parser.add_argument(
        "--output", default=None, help="also write the JSON report to this file"
    )
    parser.add_argument(
        "--sarif",
        default=None,
        metavar="FILE",
        help="also write a SARIF 2.1.0 report to this file",
    )
    parser.add_argument(
        "--layers",
        default=None,
        metavar="FILE",
        help="layer contract file for PFM010 (default: pfmlint-layers.json "
        "in the working directory, else the built-in contract)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    return parser


def _selected_rules(select: str | None, parser: argparse.ArgumentParser):
    if select is None:
        return all_rules()
    wanted = [part.strip().upper() for part in select.split(",") if part.strip()]
    unknown = [rule_id for rule_id in wanted if rule_id not in REGISTRY]
    if unknown:
        parser.error(
            f"unknown rule id(s) {unknown}; known: {sorted(REGISTRY)}"
        )
    return [REGISTRY[rule_id]() for rule_id in wanted]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(list_rules_text())
        return EXIT_CLEAN

    rules = _selected_rules(args.select, parser)
    try:
        result = lint_paths(list(args.paths), rules, layers=args.layers)
    except (FileNotFoundError, LayerConfigError) as exc:
        print(f"pfmlint: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.write_baseline:
        count = write_baseline(args.baseline, result.findings)
        print(f"pfmlint: wrote {count} finding(s) to {args.baseline}")
        return EXIT_CLEAN

    try:
        baseline = load_baseline(args.baseline) if not args.no_baseline else None
    except ValueError as exc:
        print(f"pfmlint: {exc}", file=sys.stderr)
        return EXIT_USAGE
    new, baselined = split_baselined(result.findings, baseline or {})

    report = json_report(new, baselined, result.files_checked, result.suppressed)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(sarif_report(new, baselined) + "\n")

    if args.format == "json":
        print(report)
    elif args.format == "sarif":
        print(sarif_report(new, baselined))
    else:
        print(
            text_report(new, baselined, result.files_checked, result.suppressed)
        )
    return EXIT_FINDINGS if new else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
