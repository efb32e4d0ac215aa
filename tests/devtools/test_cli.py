"""pfmlint CLI exit codes, report formats, and the repro.cli alias."""

import json
import os

from repro import cli as repro_cli
from repro.devtools.lint.cli import main as lint_main
from repro.devtools.lint.engine import lint_paths


def write_module(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source)
    return str(path)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = write_module(tmp_path, "clean.py", "x = 1\n")
        assert lint_main([clean, "--no-baseline"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_new_finding_exits_one(self, tmp_path, capsys):
        dirty = write_module(tmp_path, "dirty.py", "bad = x != 0.5\n")
        assert lint_main([dirty, "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "PFM003" in out and "dirty.py" in out

    def test_unknown_rule_is_usage_error(self, tmp_path, capsys):
        import pytest

        clean = write_module(tmp_path, "clean.py", "x = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            lint_main([clean, "--select", "PFM999"])
        assert excinfo.value.code == 2

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        clean = write_module(tmp_path, "clean.py", "x = 1\n")
        missing = str(tmp_path / "no_such_dir")
        assert lint_main([missing, "--no-baseline"]) == 2
        # One missing path fails the run even next to one that exists.
        assert lint_main([clean, missing, "--no-baseline"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(missing) == 2


class TestNoStrayFiles:
    def test_a_run_writes_nothing_it_was_not_asked_to(
        self, tmp_path, monkeypatch, capsys
    ):
        dirty = write_module(tmp_path, "dirty.py", "bad = x != 0.5\n")
        cwd = tmp_path / "cwd"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        assert lint_main([dirty, "--no-baseline"]) == 1
        assert lint_paths([dirty]).files_checked == 1
        assert os.listdir(cwd) == []
        assert sorted(os.listdir(tmp_path)) == ["cwd", "dirty.py"]


class TestBaselineFlow:
    def test_write_baseline_then_gate_passes(self, tmp_path, capsys):
        dirty = write_module(tmp_path, "dirty.py", "bad = x != 0.5\n")
        baseline = str(tmp_path / "baseline.json")
        assert lint_main([dirty, "--baseline", baseline, "--write-baseline"]) == 0
        # The recorded finding no longer gates; a fresh one does.
        assert lint_main([dirty, "--baseline", baseline]) == 0
        dirtier = write_module(
            tmp_path, "dirty.py", "bad = x != 0.5\nworse = y != 1.5\n"
        )
        assert lint_main([dirtier, "--baseline", baseline]) == 1

    def test_no_baseline_ignores_file(self, tmp_path, capsys):
        dirty = write_module(tmp_path, "dirty.py", "bad = x != 0.5\n")
        baseline = str(tmp_path / "baseline.json")
        lint_main([dirty, "--baseline", baseline, "--write-baseline"])
        capsys.readouterr()
        assert lint_main([dirty, "--baseline", baseline, "--no-baseline"]) == 1


class TestReports:
    def test_json_report_shape(self, tmp_path, capsys):
        dirty = write_module(tmp_path, "dirty.py", "bad = x != 0.5\n")
        assert lint_main([dirty, "--no-baseline", "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "pfmlint"
        assert doc["summary"]["new_findings"] == 1
        (finding,) = doc["findings"]
        assert finding["rule"] == "PFM003"
        assert finding["fingerprint"]

    def test_output_file(self, tmp_path, capsys):
        dirty = write_module(tmp_path, "dirty.py", "bad = x != 0.5\n")
        out = tmp_path / "report.json"
        lint_main([dirty, "--no-baseline", "--output", str(out)])
        doc = json.loads(out.read_text())
        assert doc["summary"]["new_findings"] == 1

    def test_select_restricts_rules(self, tmp_path, capsys):
        dirty = write_module(
            tmp_path, "dirty.py", "bad = x != 0.5\n\ndef f(log=[]):\n    pass\n"
        )
        assert lint_main([dirty, "--no-baseline", "--select", "PFM005"]) == 1
        out = capsys.readouterr().out
        assert "PFM005" in out and "PFM003" not in out

    def test_list_rules_covers_registry(self, capsys):
        from repro.devtools.lint.rules import REGISTRY

        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in REGISTRY:
            assert rule_id in out


class TestFormats:
    def test_format_json_matches_output_file(self, tmp_path, capsys):
        dirty = write_module(tmp_path, "dirty.py", "bad = x != 0.5\n")
        out = tmp_path / "report.json"
        lint_main(
            [dirty, "--no-baseline", "--format", "json", "--output", str(out)]
        )
        assert capsys.readouterr().out == out.read_text()

    def test_sarif_stdout_is_valid_sarif(self, tmp_path, capsys):
        dirty = write_module(tmp_path, "dirty.py", "bad = x != 0.5\n")
        assert lint_main([dirty, "--no-baseline", "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "pfmlint"
        (result,) = run["results"]
        assert result["ruleId"] == "PFM003"
        assert result["locations"][0]["physicalLocation"]["region"][
            "startLine"
        ] == 1

    def test_sarif_file_and_baselined_suppression(self, tmp_path, capsys):
        dirty = write_module(tmp_path, "dirty.py", "bad = x != 0.5\n")
        baseline = str(tmp_path / "baseline.json")
        lint_main([dirty, "--baseline", baseline, "--write-baseline"])
        sarif = tmp_path / "report.sarif"
        assert (
            lint_main([dirty, "--baseline", baseline, "--sarif", str(sarif)])
            == 0
        )
        doc = json.loads(sarif.read_text())
        (result,) = doc["runs"][0]["results"]
        assert result["suppressions"][0]["kind"] == "external"

    def test_sarif_output_is_deterministic(self, tmp_path, capsys):
        dirty = write_module(
            tmp_path, "dirty.py", "a = x != 0.5\nb = y != 1.5\n"
        )
        lint_main([dirty, "--no-baseline", "--format", "sarif"])
        first = capsys.readouterr().out
        lint_main([dirty, "--no-baseline", "--format", "sarif"])
        assert capsys.readouterr().out == first

    def test_rules_section_carries_versions(self, tmp_path, capsys):
        dirty = write_module(tmp_path, "dirty.py", "bad = x != 0.5\n")
        lint_main([dirty, "--no-baseline", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["rules"]["PFM003"]["version"] >= 1
        assert doc["rules"]["PFM010"]["project"] is True
        (finding,) = doc["findings"]
        assert finding["rule_version"] >= 1


class TestEngineFlags:
    def test_no_project_skips_project_rules(self, tmp_path, capsys):
        # A layer violation is only visible to the project phase, which a
        # selection of per-file rules does not run.
        pkg = tmp_path / "repro" / "telemetry"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "bad.py").write_text("from repro.core import engine\n")
        core = tmp_path / "repro" / "core"
        core.mkdir()
        (core / "__init__.py").write_text("")
        (core / "engine.py").write_text("x = 1\n")
        root = str(tmp_path / "repro")
        assert lint_main([root, "--no-baseline"]) == 1
        assert "PFM010" in capsys.readouterr().out
        file_rules = ",".join(f"PFM00{i}" for i in range(1, 10))
        assert lint_main([root, "--no-baseline", "--select", file_rules]) == 0
        assert "0 finding(s) in 5 file(s)" in capsys.readouterr().out

    def test_bad_layers_file_is_usage_error(self, tmp_path, capsys):
        clean = write_module(tmp_path, "clean.py", "x = 1\n")
        missing = str(tmp_path / "nope.json")
        assert lint_main([clean, "--no-baseline", "--layers", missing]) == 2

    def test_old_baseline_version_is_usage_error(self, tmp_path, capsys):
        dirty = write_module(tmp_path, "dirty.py", "bad = x != 0.5\n")
        stale = tmp_path / "baseline.json"
        stale.write_text('{"version": 1, "tool": "pfmlint", "findings": []}')
        assert lint_main([dirty, "--baseline", str(stale)]) == 2


class TestReproCliAlias:
    def test_lint_subcommand_delegates(self, tmp_path, capsys):
        dirty = write_module(tmp_path, "dirty.py", "bad = x != 0.5\n")
        assert repro_cli.main(["lint", dirty, "--no-baseline"]) == 1
        assert "PFM003" in capsys.readouterr().out

    def test_lint_subcommand_passes_options_after_separator(self, capsys):
        assert repro_cli.main(["lint", "--", "--list-rules"]) == 0
        assert "PFM001" in capsys.readouterr().out
