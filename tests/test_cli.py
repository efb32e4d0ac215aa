"""CLI tests (fast commands only; the simulation commands are covered by
their underlying modules and benches)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        subparsers = next(
            a for a in parser._actions if hasattr(a, "choices") and a.choices
        )
        assert set(subparsers.choices) == {
            "model", "curves", "case-study", "closed-loop", "fleet",
            "taxonomy", "policies", "campaign", "trace", "lint", "report",
        }

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_campaign_args_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--days", "0.5", "--scenario", "all-fronts", "--json"]
        )
        assert args.days == 0.5
        assert args.scenario == ["all-fronts"]
        assert args.json

    def test_campaign_telemetry_and_seed_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--seed", "5", "--trace-dir", "out"]
        )
        assert args.seed == 5
        assert args.trace_dir == "out"
        assert not args.telemetry  # --trace-dir implies it downstream

    def test_campaign_predictor_spec_flags_parse(self):
        args = build_parser().parse_args(
            [
                "campaign",
                "--predictor-spec",
                '{"name": "noisy-or", "members": ["ubf", "trend"]}',
            ]
        )
        assert args.predictor == "ubf"  # default, overridden downstream
        assert "noisy-or" in args.predictor_spec

    def test_predictor_spec_helper_parses_inline_json(self):
        from repro.cli import _parse_predictor_spec

        spec = _parse_predictor_spec(
            '{"name": "noisy-or", "members": ["ubf", "trend", "trend"]}'
        )
        assert spec["name"] == "noisy-or"
        assert [m["alias"] for m in spec["members"]] == [
            "ubf",
            "trend",
            "trend-2",
        ]

    def test_predictor_spec_helper_reads_files(self, tmp_path):
        from repro.cli import _parse_predictor_spec

        path = tmp_path / "panel.json"
        path.write_text('{"name": "noisy-or", "members": ["ubf"]}')
        assert _parse_predictor_spec(f"@{path}")["name"] == "noisy-or"

    def test_predictor_spec_helper_rejects_bad_input(self):
        from repro.cli import _parse_predictor_spec

        with pytest.raises(SystemExit, match="not valid JSON"):
            _parse_predictor_spec("{nope")
        with pytest.raises(SystemExit, match="invalid --predictor-spec"):
            _parse_predictor_spec('{"name": "no-such-predictor"}')

    def test_fleet_predictor_spec_repeatable(self):
        args = build_parser().parse_args(
            [
                "fleet",
                "--predictor-spec",
                '{"name": "noisy-or", "members": ["ubf"]}',
                "--predictor-spec",
                '{"name": "noisy-or", "members": ["trend"]}',
            ]
        )
        assert len(args.predictor_spec) == 2

    def test_fleet_args_parse(self):
        args = build_parser().parse_args(
            [
                "fleet", "--scenario", "closed-loop", "--seeds", "21,22,23",
                "--backend", "process", "--workers", "2",
                "--ledger", "fleet.jsonl", "--json",
            ]
        )
        assert args.scenario == ["closed-loop"]
        assert args.seeds == "21,22,23"
        assert args.backend == "process"
        assert args.workers == 2
        assert args.ledger == "fleet.jsonl"
        assert args.json

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.scenario is None  # -> closed-loop downstream
        assert args.backend == "process"
        assert args.num_seeds == 4
        assert args.base_seed == 21
        assert args.train_seed is None  # derive from each master seed
        assert args.ledger is None

    def test_fleet_pinned_train_seed_parses(self):
        args = build_parser().parse_args(["fleet", "--train-seed", "11"])
        assert args.train_seed == 11

    def test_fleet_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--backend", "threads"])

    def test_fleet_trace_flags_parse(self):
        args = build_parser().parse_args(
            ["fleet", "--trace-dir", "traces/run1", "--trace-deterministic"]
        )
        assert args.trace_dir == "traces/run1"
        assert args.trace_deterministic

    def test_fleet_trace_defaults_off(self):
        args = build_parser().parse_args(["fleet"])
        assert args.trace_dir is None
        assert not args.trace_deterministic

    def test_report_args_parse(self):
        args = build_parser().parse_args(
            [
                "report", "--trace-dir", "traces/run1",
                "--ledger", "fleet.jsonl", "--aggregate", "agg.json",
                "--title", "nightly", "--html", "--out", "report.html",
            ]
        )
        assert args.trace_dir == "traces/run1"
        assert args.ledger == "fleet.jsonl"
        assert args.aggregate == "agg.json"
        assert args.title == "nightly"
        assert args.html
        assert args.out == "report.html"

    def test_campaign_backend_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--backend", "process", "--workers", "3"]
        )
        assert args.backend == "process"
        assert args.workers == 3

    def test_trace_args_parse(self):
        args = build_parser().parse_args(
            ["trace", "--days", "0.5", "--out", "tel"]
        )
        assert args.days == 0.5
        assert args.out == "tel"

    def test_campaign_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            main(["campaign", "--scenario", "does-not-exist"])


class TestFastCommands:
    def test_campaign_trace_dir_turns_on_telemetry(self, monkeypatch, capsys):
        from repro.resilience import campaign

        calls = []

        class Report:
            def summary(self):
                return "campaign summary"

        def fake_run_campaign(config, **kwargs):
            calls.append((config, kwargs))
            return Report()

        monkeypatch.setattr(campaign, "run_campaign", fake_run_campaign)
        assert main(["campaign", "--trace-dir", "out"]) == 0
        assert main(["campaign"]) == 0
        (traced, traced_kwargs), (plain, plain_kwargs) = calls
        assert traced.telemetry and traced_kwargs["trace_dir"] == "out"
        assert not plain.telemetry and plain_kwargs["trace_dir"] is None
        assert "campaign summary" in capsys.readouterr().out

    def test_model_defaults(self, capsys):
        assert main(["model"]) == 0
        out = capsys.readouterr().out
        assert "availability with PFM" in out
        assert "0.979916" in out
        assert "0.487" in out  # Eq. 14 asymptotic

    def test_model_custom_quality(self, capsys):
        assert main(["model", "--recall", "0.9", "--precision", "0.9"]) == 0
        out = capsys.readouterr().out
        assert "availability with PFM" in out

    def test_curves(self, capsys):
        assert main(["curves", "--points", "3", "--horizon", "1000"]) == 0
        out = capsys.readouterr().out
        assert "R_pfm" in out
        assert out.count("\n") >= 4

    def test_taxonomy(self, capsys):
        assert main(["taxonomy"]) == 0
        out = capsys.readouterr().out
        assert "Online Failure Prediction" in out
        assert "UBFPredictor" in out

    def test_policies(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "pfm" in out
        assert "rejuvenation@" in out
        assert "none" in out

    def test_report_requires_an_input(self):
        with pytest.raises(SystemExit):
            main(["report"])

    def test_report_from_aggregate_json(self, tmp_path, capsys):
        import json

        aggregate = {
            "shards": 2,
            "quarantined": [],
            "scenarios": {
                "closed-loop": {
                    "outcome_matrix": {
                        "TP": {"count": 7},
                        "FP": {"count": 3},
                        "TN": {"count": 90},
                        "FN": {"count": 5},
                    }
                }
            },
        }
        path = tmp_path / "agg.json"
        path.write_text(json.dumps(aggregate))
        assert main(["report", "--aggregate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Prediction quality" in out
        assert "closed-loop" in out
        assert "0.7000" in out  # precision = 7 / (7 + 3)

    def test_report_html_to_file(self, tmp_path):
        import json

        path = tmp_path / "agg.json"
        path.write_text(json.dumps({"shards": 1, "scenarios": {}}))
        out_path = tmp_path / "report.html"
        assert (
            main(
                [
                    "report", "--aggregate", str(path),
                    "--html", "--out", str(out_path),
                ]
            )
            == 0
        )
        text = out_path.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "shards aggregated: 1" in text
