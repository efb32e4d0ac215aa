"""Engine behaviour: suppressions, parse errors, discovery, fingerprints."""

import ast
import json
import textwrap

from repro.devtools.lint.engine import (
    PARSE_ERROR_RULE,
    iter_python_files,
    lint_paths,
    lint_source,
    parse_suppressions,
)
from repro.devtools.lint.findings import Finding, ModuleContext
from repro.devtools.lint.reporters import json_report

#: A project with findings scattered over enough files that an unsorted
#: merge would visibly scramble the report.
SCATTERED = {
    f"repro/pkg{i}/mod{j}.py": (
        "bad = value != 0.5\n"
        if (i + j) % 2
        else "import time\n\n\ndef f():\n    return time.time()\n"
    )
    for i in range(3)
    for j in range(4)
}
SCATTERED["repro/telemetry/taint.py"] = (
    "from repro.pkg0.mod0 import f\n\n\ndef span():\n    return f()\n"
)


class TestSuppressions:
    def test_parse_single_and_multiple_rules(self):
        source = (
            "a = x != 0.0  # pfmlint: disable=PFM003 -- sentinel\n"
            "b = x != 1.0  # pfmlint: disable=PFM003, PFM001\n"
        )
        suppressions = parse_suppressions(source)
        assert suppressions == {1: {"PFM003"}, 2: {"PFM003", "PFM001"}}

    def test_same_line_suppression_consumes_finding(self):
        findings, suppressed = lint_source(
            "bad = x != 0.0  # pfmlint: disable=PFM003 -- reason\n",
            "src/repro/example.py",
        )
        assert findings == []
        assert suppressed == 1

    def test_disable_all(self):
        findings, suppressed = lint_source(
            "bad = x != 0.0  # pfmlint: disable=all\n",
            "src/repro/example.py",
        )
        assert findings == []
        assert suppressed == 1

    def test_suppression_on_other_line_does_not_apply(self):
        findings, suppressed = lint_source(
            "# pfmlint: disable=PFM003\nbad = x != 0.0\n",
            "src/repro/example.py",
        )
        assert [f.rule for f in findings] == ["PFM003"]
        assert suppressed == 0


class TestParseErrors:
    def test_syntax_error_becomes_pfm000(self):
        findings, _ = lint_source("def broken(:\n", "src/repro/example.py")
        assert [f.rule for f in findings] == [PARSE_ERROR_RULE]
        assert "does not parse" in findings[0].message


class TestDiscovery:
    def test_iter_python_files_skips_cache_dirs(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "mod.cpython-312.py").write_text("")
        (tmp_path / "pkg" / ".hidden").mkdir()
        (tmp_path / "pkg" / ".hidden" / "secret.py").write_text("")
        (tmp_path / "notes.txt").write_text("")
        files = iter_python_files([str(tmp_path)])
        assert [f.rsplit("/", 1)[-1] for f in files] == ["mod.py"]

    def test_lint_paths_counts_files_and_sorts_findings(self, tmp_path):
        (tmp_path / "b.py").write_text("bad = x != 0.5\n")
        (tmp_path / "a.py").write_text("ok = 1\n")
        result = lint_paths([str(tmp_path)])
        assert result.files_checked == 2
        assert [f.rule for f in result.findings] == ["PFM003"]

    def test_report_is_deterministic_json(self, make_project):
        root = make_project(SCATTERED)
        result = lint_paths([root])
        report = json_report(result.findings, [], result.files_checked,
                             result.suppressed)
        doc = json.loads(report)
        paths = [f["path"] for f in doc["findings"]]
        assert len(set(paths)) > 1
        assert paths == sorted(paths)


class TestModuleContext:
    def test_one_walk_in_ast_walk_order_with_enclosing_functions(self):
        source = textwrap.dedent(
            """
            import os


            class Box:
                def method(self):
                    def inner():
                        import json
                    return inner


            async def task():
                x = 1
            """
        )
        tree = ast.parse(source)
        module = ModuleContext(path="m.py", source=source, tree=tree)
        assert module.nodes == list(ast.walk(tree))
        assert [node for node, _ in module.scoped_nodes] == module.nodes
        scoped = [
            (type(node).__name__, getattr(node, "name", None),
             [function.name for function in functions])
            for node, functions in module.scoped_nodes
            if isinstance(
                node,
                (ast.Import, ast.FunctionDef, ast.AsyncFunctionDef, ast.Assign),
            )
        ]
        assert scoped == [
            ("Import", None, []),
            ("AsyncFunctionDef", "task", []),
            ("FunctionDef", "method", []),
            ("Assign", None, ["task"]),
            ("FunctionDef", "inner", ["method"]),
            ("Import", None, ["method", "inner"]),
        ]


class TestFingerprints:
    def test_line_number_independent(self):
        base = Finding(
            path="src/repro/x.py", line=3, col=1,
            rule="PFM003", message="m", snippet="a != 0.0",
        )
        moved = Finding(
            path="src/repro/x.py", line=90, col=5,
            rule="PFM003", message="m", snippet="a  !=  0.0",
        )
        other_file = Finding(
            path="src/repro/y.py", line=3, col=1,
            rule="PFM003", message="m", snippet="a != 0.0",
        )
        assert base.fingerprint() == moved.fingerprint()
        assert base.fingerprint() != other_file.fingerprint()
