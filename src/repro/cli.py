"""Command-line interface: ``python -m repro.cli <command>``.

Commands map to the paper's artifacts:

- ``model``        Table 2 -> availability (Eq. 8), ratio (Eq. 14)
- ``curves``       Fig. 10 reliability / hazard series
- ``case-study``   Sect. 3.3: simulate the SCP, train UBF + HSMM, report
- ``closed-loop``  replay one faultload with and without PFM
- ``fleet``        sharded multi-seed grid -> per-scenario distributions
- ``report``       fleet trace + ledger + aggregate -> markdown/HTML report
- ``campaign``     fault-inject the PFM stack itself, report degradation
- ``trace``        instrumented closed-loop run -> JSONL trace + metrics
- ``taxonomy``     print the Fig. 3 classification tree
- ``policies``     cost comparison: PFM vs optimal rejuvenation vs nothing
- ``lint``         run pfmlint, the determinism & dependability linter
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np


def _cmd_model(args: argparse.Namespace) -> None:
    from repro.reliability import (
        PFMModel,
        PFMParameters,
        PredictionQuality,
        asymptotic_unavailability_ratio,
        unavailability_ratio,
        without_pfm_availability,
    )

    params = PFMParameters(
        quality=PredictionQuality(args.precision, args.recall, args.fpr),
        p_tp=args.ptp,
        p_fp=args.pfp,
        k=args.k,
    )
    model = PFMModel(params)
    print(f"availability with PFM:    {model.availability():.6f}")
    print(f"availability without PFM: {without_pfm_availability(params):.6f}")
    print(f"unavailability ratio:     {unavailability_ratio(params):.3f}")
    print(f"asymptotic ratio (Eq.14): {asymptotic_unavailability_ratio(params):.3f}")


def _cmd_curves(args: argparse.Namespace) -> None:
    from repro.reliability import PFMParameters, hazard_curves, reliability_curves

    params = PFMParameters.paper_example()
    ts = np.linspace(0.0, args.horizon, args.points)
    reliability = reliability_curves(params, ts)
    hazard = hazard_curves(params, ts)
    print(f"{'t':>10s} {'R_pfm':>8s} {'R':>8s} {'h_pfm':>11s} {'h':>11s}")
    for i, t in enumerate(ts):
        print(
            f"{t:10.0f} {reliability['with_pfm'][i]:8.4f} "
            f"{reliability['without_pfm'][i]:8.4f} "
            f"{hazard['with_pfm'][i]:11.3e} {hazard['without_pfm'][i]:11.3e}"
        )


def _cmd_case_study(args: argparse.Namespace) -> None:
    from repro.core.experiment import DEFAULT_VARIABLES
    from repro.prediction.evaluation import (
        chronological_split,
        evaluate_event_predictor,
        evaluate_symptom_predictor,
        split_sequences,
    )
    from repro.prediction.hsmm import HSMMPredictor
    from repro.prediction.ubf import (
        ProbabilisticWrapper,
        UBFNetwork,
        UBFPredictor,
    )
    from repro.telecom.dataset import DatasetConfig, prepare_simulation

    print(f"simulating {args.days:g} days of SCP operation...")
    dataset = prepare_simulation(
        DatasetConfig(horizon=args.days * 86_400.0, seed=args.seed),
        monitor=DEFAULT_VARIABLES,
    ).run()
    print(f"failures: {len(dataset.failure_log)}  errors: {len(dataset.error_log)}")
    grid, x, y_avail, y_fail = dataset.ubf_samples(variables=DEFAULT_VARIABLES)
    train, test = chronological_split(grid, fraction=0.6)
    ubf = UBFPredictor(
        network=UBFNetwork(n_kernels=10, max_opt_iter=25, rng=np.random.default_rng(0)),
        wrapper=ProbabilisticWrapper(
            n_rounds=8, samples_per_round=10, rng=np.random.default_rng(1)
        ),
    )
    ubf_report = evaluate_symptom_predictor(
        ubf, x[train], y_avail[train], y_fail[train], x[test], y_fail[test], "UBF"
    )
    cutoff = float(grid[train][-1])
    failure_seqs, nonfailure_seqs = dataset.error_sequences()
    train_f, test_f = split_sequences(failure_seqs, cutoff)
    train_n, test_n = split_sequences(nonfailure_seqs, cutoff)
    hsmm_report = evaluate_event_predictor(
        HSMMPredictor(max_iter=10, seed=3), train_f, train_n, test_f, test_n, "HSMM"
    )
    print("paper HSMM: precision=0.700 recall=0.620 fpr=0.016 AUC=0.873")
    print("paper UBF : AUC=0.846")
    print(hsmm_report.row())
    print(ubf_report.row())


def _cmd_closed_loop(args: argparse.Namespace) -> None:
    from repro.core import run_closed_loop
    from repro.fleet import RunSpec

    spec = RunSpec(
        scenario="closed-loop",
        seed=args.train_seed,
        train_seed=args.train_seed,
        eval_seed=args.eval_seed,
        horizon=args.days * 86_400.0,
    )
    print(run_closed_loop(spec).summary())


def _parse_predictor_spec(raw: str) -> dict:
    """A ``--predictor-spec`` value: inline JSON or ``@path`` to a file."""
    import json

    from repro.prediction.registry import normalize_predictor_spec

    if raw.startswith("@"):
        with open(raw[1:], encoding="utf-8") as handle:
            raw = handle.read()
    try:
        spec = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"--predictor-spec is not valid JSON: {exc}") from None
    try:
        return normalize_predictor_spec(spec)
    except Exception as exc:
        raise SystemExit(f"invalid --predictor-spec: {exc}") from None


def _cmd_fleet(args: argparse.Namespace) -> None:
    from repro.fleet import grid, run_fleet

    if args.seeds:
        seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    else:
        seeds = list(range(args.base_seed, args.base_seed + args.num_seeds))
    common = {}
    if args.train_seed is not None:
        common["train_seed"] = args.train_seed
    predictors: list = list(args.predictor or [])
    for raw in args.predictor_spec or []:
        predictors.append(_parse_predictor_spec(raw))
    specs = grid(
        args.scenario or ["closed-loop"],
        seeds=seeds,
        predictors=predictors or ["ubf"],
        horizon=args.days * 86_400.0,
        telemetry=args.telemetry,
        **common,
    )

    def progress(done: int, total: int, result) -> None:
        print(
            f"[{done}/{total}] {result.spec.key()} "
            f"avail={result.availability:.4f} ({result.wall_seconds:.1f}s)",
            file=sys.stderr,
        )

    chaos = None
    if args.chaos:
        from repro.faults.chaos import parse_chaos

        chaos = parse_chaos(args.chaos, seed=args.chaos_seed)
    retry = None
    if args.max_attempts is not None:
        from repro.resilience import RetryPolicy

        retry = RetryPolicy(max_attempts=args.max_attempts)
    report = run_fleet(
        specs,
        backend=args.backend,
        workers=args.workers,
        ledger_path=args.ledger,
        progress=progress,
        artifact_store=args.artifact_store,
        chunk_size=args.chunk_size,
        retry=retry,
        retry_failed=args.retry_failed,
        chaos=chaos,
        trace_dir=args.trace_dir,
        trace_deterministic=args.trace_deterministic,
    )
    if args.out:
        # --out stays the canonical (byte-identity) aggregate document.
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report.aggregate_json())
        print(f"aggregate: {args.out}", file=sys.stderr)
    if args.trace_dir:
        trace = report.timing.get("trace") or {}
        print(
            f"trace: {trace.get('path')} ({trace.get('events')} events, "
            f"{trace.get('shards')} shard lanes) "
            f"chrome: {trace.get('chrome_path')}",
            file=sys.stderr,
        )
    if args.json:
        print(report.aggregate_json(include_recovery=True))
    else:
        print(report.summary())


def _cmd_report(args: argparse.Namespace) -> None:
    from repro.fleet.report import collect_report, render_html, render_markdown

    if not (args.trace_dir or args.ledger or args.aggregate):
        raise SystemExit(
            "report needs at least one input: --trace-dir, --ledger "
            "or --aggregate"
        )
    data = collect_report(
        trace_dir=args.trace_dir,
        ledger_path=args.ledger,
        aggregate=args.aggregate,
        title=args.title,
    )
    rendered = render_html(data) if args.html else render_markdown(data)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered)
        print(f"report: {args.out}", file=sys.stderr)
    else:
        print(rendered)


def _cmd_campaign(args: argparse.Namespace) -> None:
    from repro.resilience import CampaignConfig, default_scenarios, run_campaign

    scenarios = default_scenarios()
    if args.scenario:
        by_name = {scenario.name: scenario for scenario in scenarios}
        unknown = [name for name in args.scenario if name not in by_name]
        if unknown:
            raise SystemExit(
                f"unknown scenario(s) {unknown}; choose from {sorted(by_name)}"
            )
        scenarios = [by_name[name] for name in args.scenario]
    predictor = (
        _parse_predictor_spec(args.predictor_spec)
        if args.predictor_spec
        else args.predictor
    )
    report = run_campaign(
        CampaignConfig(
            train_seed=args.train_seed,
            eval_seed=args.eval_seed,
            injection_seed=args.injection_seed,
            seed=args.seed,
            horizon=args.days * 86_400.0,
            predictor=predictor,
            scenarios=scenarios,
            attack_mtbf=args.attack_mtbf,
            attack_duration=args.attack_duration,
            # A trace of uninstrumented shards would be empty.
            telemetry=args.telemetry or args.trace_dir is not None,
        ),
        backend=args.backend,
        workers=args.workers,
        ledger_path=args.ledger,
        artifact_store=args.artifact_store,
        trace_dir=args.trace_dir,
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.summary())


def _cmd_trace(args: argparse.Namespace) -> None:
    from repro.core import run_closed_loop
    from repro.fleet import RunSpec
    from repro.telemetry import (
        TelemetryHub,
        export_jsonl,
        prometheus_text,
        run_summary,
    )

    hub = TelemetryHub()
    spec = RunSpec(
        seed=args.train_seed,
        train_seed=args.train_seed,
        eval_seed=args.eval_seed,
        horizon=args.days * 86_400.0,
    )
    result = run_closed_loop(spec, telemetry=hub)
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.jsonl")
    n_events = export_jsonl(hub, trace_path)
    prom_path = os.path.join(args.out, "metrics.prom")
    with open(prom_path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(hub))
    print(
        run_summary(
            hub,
            title=(
                f"closed loop: train_seed={args.train_seed} "
                f"eval_seed={args.eval_seed} days={args.days:g}"
            ),
        )
    )
    print(f"unavailability ratio: {result.unavailability_ratio:.3f}")
    print(f"trace: {trace_path} ({n_events} events)")
    print(f"metrics snapshot: {prom_path}")


def _cmd_taxonomy(args: argparse.Namespace) -> None:
    from repro.prediction.taxonomy import render

    print(render())


def _cmd_policies(args: argparse.Namespace) -> None:
    from repro.reliability import PFMParameters
    from repro.reliability.cost import CostModel, policy_comparison

    costs = CostModel(
        unplanned_cost_rate=args.unplanned_cost, planned_cost_rate=args.planned_cost
    )
    rows = policy_comparison(PFMParameters.paper_example(), costs)
    print(f"{'policy':<24s} {'avail':>8s} {'planned':>9s} {'unplanned':>10s} {'cost/s':>9s}")
    for row in rows:
        print(
            f"{row.policy:<24s} {row.availability:8.5f} "
            f"{row.planned_downtime_fraction:9.6f} "
            f"{row.unplanned_downtime_fraction:10.6f} {row.cost_rate:9.5f}"
        )


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools.lint.cli import main as lint_main

    lint_args = args.lint_args
    if lint_args and lint_args[0] == "--":
        lint_args = lint_args[1:]
    return lint_main(lint_args)


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Proactive Fault Management reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    model = sub.add_parser("model", help="Table 2 -> Eq. 8 / Eq. 14")
    model.add_argument("--precision", type=float, default=0.70)
    model.add_argument("--recall", type=float, default=0.62)
    model.add_argument("--fpr", type=float, default=0.016)
    model.add_argument("--ptp", type=float, default=0.25)
    model.add_argument("--pfp", type=float, default=0.1)
    model.add_argument("--k", type=float, default=2.0)
    model.set_defaults(func=_cmd_model)

    curves = sub.add_parser("curves", help="Fig. 10 series")
    curves.add_argument("--horizon", type=float, default=50_000.0)
    curves.add_argument("--points", type=int, default=11)
    curves.set_defaults(func=_cmd_curves)

    case = sub.add_parser("case-study", help="Sect. 3.3 predictors on the SCP")
    case.add_argument("--days", type=float, default=7.0)
    case.add_argument("--seed", type=int, default=7)
    case.set_defaults(func=_cmd_case_study)

    loop = sub.add_parser("closed-loop", help="PFM vs baseline on one faultload")
    loop.add_argument("--train-seed", type=int, default=11)
    loop.add_argument("--eval-seed", type=int, default=21)
    loop.add_argument("--days", type=float, default=3.0)
    loop.set_defaults(func=_cmd_closed_loop)

    fleet = sub.add_parser(
        "fleet", help="sharded multi-seed grid -> per-scenario distributions"
    )
    fleet.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="scenario to shard over (repeatable; default closed-loop)",
    )
    fleet.add_argument(
        "--seeds",
        default=None,
        help="comma-separated master seeds (e.g. 21,22,23); overrides "
        "--num-seeds/--base-seed",
    )
    fleet.add_argument(
        "--num-seeds", type=int, default=4, help="number of consecutive seeds"
    )
    fleet.add_argument(
        "--base-seed", type=int, default=21, help="first master seed"
    )
    fleet.add_argument(
        "--train-seed",
        type=int,
        default=None,
        help="pin one training seed across every shard (shared-predictor "
        "sweep); default derives training from each shard's master seed",
    )
    fleet.add_argument(
        "--predictor",
        action="append",
        default=None,
        help="predictor registry name (repeatable; default ubf)",
    )
    fleet.add_argument(
        "--predictor-spec",
        action="append",
        default=None,
        help="nested predictor spec as JSON (or @file), e.g. "
        '\'{"name": "noisy-or", "members": ["ubf", "trend"]}\' (repeatable)',
    )
    fleet.add_argument("--days", type=float, default=2.0)
    fleet.add_argument(
        "--backend", choices=["serial", "process"], default="process"
    )
    fleet.add_argument(
        "--workers", type=int, default=None, help="process-pool size"
    )
    fleet.add_argument(
        "--ledger",
        default=None,
        help="JSONL checkpoint; re-running skips completed shards",
    )
    fleet.add_argument(
        "--artifact-store",
        default=None,
        metavar="DIR",
        help="shared trained-model store: pre-warm each unique training "
        "configuration once, workers load instead of re-training",
    )
    fleet.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="shards per submitted chunk (default: sized to the workers)",
    )
    fleet.add_argument(
        "--telemetry", action="store_true", help="instrument every shard"
    )
    fleet.add_argument(
        "--retry-failed",
        action="store_true",
        help="re-run shards the ledger recorded as failed or quarantined "
        "instead of skipping them on resume",
    )
    fleet.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="retry budget per shard for infrastructure failures (worker "
        "death, torn reads) before quarantine; default 3, 1 disables retries",
    )
    fleet.add_argument(
        "--chaos",
        default=None,
        metavar="SPEC",
        help="arm seeded fault injection in every worker, e.g. "
        "'crash=0.2,slow=0.1,torn=0.05' (fleet chaos harness; proves the "
        "supervisor absorbs worker loss without perturbing aggregates)",
    )
    fleet.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed for the chaos fault decisions (default 0)",
    )
    fleet.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="fleet-wide distributed tracing: per-shard JSONL sidecars, a "
        "supervisor recovery lane, a merged deterministic timeline "
        "(fleet_trace.jsonl) and a Chrome/Perfetto render "
        "(fleet_trace.chrome.json) under this directory",
    )
    fleet.add_argument(
        "--trace-deterministic",
        action="store_true",
        help="zero wall-clock fields in trace sidecars so trace bytes are "
        "a pure function of simulated behaviour",
    )
    fleet.add_argument(
        "--json",
        action="store_true",
        help="emit the aggregate JSON document (with the recovery section)",
    )
    fleet.add_argument(
        "--out", default=None, help="also write the aggregate JSON to this file"
    )
    fleet.set_defaults(func=_cmd_fleet)

    report = sub.add_parser(
        "report",
        help="render a fleet run report from trace dir + ledger + aggregate",
        description="Turn the artifacts one fleet run left behind (any "
        "subset of --trace-dir, --ledger, --aggregate) into a single "
        "markdown or HTML report: per-shard span profiles, the supervisor "
        "recovery timeline, quarantine causes, and the Sect. 3.3 quality "
        "roll-up.",
    )
    report.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="trace directory written by `fleet --trace-dir`",
    )
    report.add_argument(
        "--ledger",
        default=None,
        help="fleet ledger (quarantine / failure causes)",
    )
    report.add_argument(
        "--aggregate",
        default=None,
        metavar="JSON",
        help="aggregate document written by `fleet --out`",
    )
    report.add_argument(
        "--title", default="fleet run report", help="report heading"
    )
    report.add_argument(
        "--html",
        action="store_true",
        help="render a self-contained HTML page instead of markdown",
    )
    report.add_argument(
        "--out",
        default=None,
        help="write the report here instead of stdout",
    )
    report.set_defaults(func=_cmd_report)

    campaign = sub.add_parser(
        "campaign", help="fault-inject the PFM stack, report graceful degradation"
    )
    campaign.add_argument("--train-seed", type=int, default=11)
    campaign.add_argument("--eval-seed", type=int, default=21)
    campaign.add_argument("--injection-seed", type=int, default=97)
    campaign.add_argument("--days", type=float, default=2.0)
    campaign.add_argument(
        "--predictor",
        default="ubf",
        help="registry name of the campaign's primary predictor",
    )
    campaign.add_argument(
        "--predictor-spec",
        default=None,
        help="nested predictor spec as JSON (or @file), e.g. "
        '\'{"name": "noisy-or", "members": ["ubf", "hsmm", "trend"]}\'; '
        "overrides --predictor",
    )
    campaign.add_argument("--attack-mtbf", type=float, default=3_600.0)
    campaign.add_argument("--attack-duration", type=float, default=1_200.0)
    campaign.add_argument(
        "--scenario",
        action="append",
        default=None,
        help="run only this named scenario (repeatable)",
    )
    campaign.add_argument(
        "--seed",
        type=int,
        default=None,
        help="master seed (overrides train/eval/injection seeds)",
    )
    campaign.add_argument(
        "--telemetry",
        action="store_true",
        help="instrument every PFM run (spans, events, quality gauges)",
    )
    campaign.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="fleet tracing of the scenario shards: per-shard JSONL "
        "sidecars merged into DIR/fleet_trace.jsonl, renderable with "
        "`report --trace-dir` (implies --telemetry)",
    )
    campaign.add_argument(
        "--backend",
        choices=["serial", "process"],
        default="serial",
        help="fleet backend running the scenario shards",
    )
    campaign.add_argument(
        "--workers", type=int, default=None, help="process-pool size"
    )
    campaign.add_argument(
        "--ledger",
        default=None,
        help="JSONL checkpoint; re-running skips completed scenarios",
    )
    campaign.add_argument(
        "--artifact-store",
        default=None,
        metavar="DIR",
        help="shared trained-model store for the scenario shards",
    )
    campaign.add_argument("--json", action="store_true", help="emit JSON report")
    campaign.set_defaults(func=_cmd_campaign)

    trace = sub.add_parser(
        "trace", help="instrumented closed-loop run -> JSONL trace + metrics"
    )
    trace.add_argument("--train-seed", type=int, default=11)
    trace.add_argument("--eval-seed", type=int, default=21)
    trace.add_argument("--days", type=float, default=2.0)
    trace.add_argument(
        "--out", default="telemetry-out", help="output directory for artifacts"
    )
    trace.set_defaults(func=_cmd_trace)

    taxonomy = sub.add_parser("taxonomy", help="Fig. 3 tree")
    taxonomy.set_defaults(func=_cmd_taxonomy)

    policies = sub.add_parser("policies", help="cost: PFM vs rejuvenation vs none")
    policies.add_argument("--unplanned-cost", type=float, default=10.0)
    policies.add_argument("--planned-cost", type=float, default=1.0)
    policies.set_defaults(func=_cmd_policies)

    lint = sub.add_parser(
        "lint",
        help="pfmlint: determinism & dependability static analysis",
        description="Arguments after 'lint' are passed through to pfmlint "
        "(see `repro lint -- --help`).",
    )
    lint.add_argument(
        "lint_args",
        nargs=argparse.REMAINDER,
        help="pfmlint arguments (paths, --format, --baseline, ...)",
    )
    lint.set_defaults(func=_cmd_lint)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # argparse.REMAINDER does not capture leading options ("lint --format"),
    # so the lint passthrough is dispatched before the main parser runs.
    if argv and argv[0] == "lint":
        from repro.devtools.lint.cli import main as lint_main

        rest = argv[1:]
        if rest and rest[0] == "--":
            rest = rest[1:]
        return lint_main(rest)
    parser = build_parser()
    args = parser.parse_args(argv)
    code = args.func(args)
    return 0 if code is None else int(code)


if __name__ == "__main__":
    sys.exit(main())
