"""The content-addressed analysis cache: hits, invalidation, tolerance."""

import json
import os

from repro.devtools.lint.cli import main as lint_main
from repro.devtools.lint.cache import (
    CACHE_VERSION,
    LintCache,
    engine_signature,
    file_digest,
    source_digest,
)
from repro.devtools.lint.engine import lint_paths
from repro.devtools.lint.project import ANALYZER_VERSION
from repro.devtools.lint.rules import REGISTRY, all_rules


def lint(root, cache_dir):
    return lint_paths([root], cache_dir=cache_dir)


class TestCacheLifecycle:
    def test_cold_then_warm(self, make_project, tmp_path):
        root = make_project(
            {
                "repro/a.py": "bad = x != 0.5\n",
                "repro/b.py": "y = 1\n",
            }
        )
        cache_dir = str(tmp_path / "cache")
        cold = lint(root, cache_dir)
        assert cold.cache_hits == 0
        assert cold.cache_misses == cold.files_checked > 0

        warm = lint(root, cache_dir)
        assert warm.cache_misses == 0
        assert warm.cache_hits == warm.files_checked
        assert warm.findings == cold.findings
        assert warm.suppressed == cold.suppressed

    def test_editing_one_file_invalidates_only_it(self, make_project, tmp_path):
        root = make_project(
            {
                "repro/a.py": "x = 1\n",
                "repro/b.py": "y = 1\n",
            }
        )
        cache_dir = str(tmp_path / "cache")
        lint(root, cache_dir)
        with open(os.path.join(root, "repro", "a.py"), "w") as handle:
            handle.write("bad = x != 0.5\n")
        second = lint(root, cache_dir)
        assert second.cache_misses == 1
        assert second.cache_hits == second.files_checked - 1
        assert [f.rule for f in second.findings] == ["PFM003"]

    def test_no_cache_dir_disables_counting(self, make_project):
        root = make_project({"repro/a.py": "x = 1\n"})
        result = lint_paths([root], cache_dir=None)
        assert result.cache_hits == 0
        assert result.cache_misses == 0

    def test_corrupt_entry_is_a_miss_not_an_error(self, make_project, tmp_path):
        root = make_project({"repro/a.py": "bad = x != 0.5\n"})
        cache_dir = str(tmp_path / "cache")
        cold = lint(root, cache_dir)
        for name in os.listdir(cache_dir):
            with open(os.path.join(cache_dir, name), "w") as handle:
                handle.write("{torn json")
        again = lint(root, cache_dir)
        assert again.findings == cold.findings
        assert again.cache_misses == again.files_checked

    def test_parsable_non_entries_are_misses(self, make_project, tmp_path):
        root = make_project({"repro/a.py": "bad = x != 0.5\n"})
        cache_dir = str(tmp_path / "cache")
        cold = lint(root, cache_dir)
        for damaged in ("1", "[]", json.dumps({"cache_version": CACHE_VERSION})):
            for name in os.listdir(cache_dir):
                with open(os.path.join(cache_dir, name), "w") as handle:
                    handle.write(damaged)
            again = lint(root, cache_dir)
            assert again.findings == cold.findings
            assert again.cache_misses == again.files_checked


class TestSignature:
    def test_rule_version_bump_changes_signature(self):
        rules = all_rules()
        before = engine_signature(ANALYZER_VERSION, rules)
        cls = REGISTRY["PFM003"]
        original = cls.version
        try:
            cls.version = original + 1
            after = engine_signature(ANALYZER_VERSION, all_rules())
        finally:
            cls.version = original
        assert before != after

    def test_rule_selection_changes_signature(self):
        rules = all_rules()
        assert engine_signature(ANALYZER_VERSION, rules) != engine_signature(
            ANALYZER_VERSION, rules[:-1]
        )

    def test_analyzer_version_changes_signature(self):
        rules = all_rules()
        assert engine_signature(ANALYZER_VERSION, rules) != engine_signature(
            ANALYZER_VERSION + 1, rules
        )

    def test_source_digest_is_content_addressed(self):
        assert source_digest("x = 1\n") == source_digest("x = 1\n")
        assert source_digest("x = 1\n") != source_digest("x = 2\n")

    def test_file_digest_distinguishes_identical_contents(self):
        """Entries embed the path, so same-bytes files must not collide."""
        assert file_digest("a.py", "x = 1\n") != file_digest("b.py", "x = 1\n")
        assert file_digest("a.py", "x = 1\n") == file_digest("a.py", "x = 1\n")

    def test_identical_file_contents_keep_their_own_findings(
        self, make_project, tmp_path
    ):
        root = make_project(
            {
                "repro/a.py": "bad = x != 0.5\n",
                "repro/b.py": "bad = x != 0.5\n",
            }
        )
        cache_dir = str(tmp_path / "cache")
        cold = lint(root, cache_dir)
        warm = lint(root, cache_dir)
        assert warm.findings == cold.findings
        assert sorted({f.path for f in warm.findings}) == sorted(
            {f.path for f in cold.findings}
        )
        assert len({f.path for f in warm.findings}) == 2


class TestCacheStore:
    def test_save_load_roundtrip(self, tmp_path):
        cache = LintCache(str(tmp_path / "c"))
        entry = {"findings": [], "suppressed": 0, "suppressions": {},
                 "summary": None}
        cache.save("a" * 64, "sig", entry)
        loaded = cache.load("a" * 64, "sig")
        assert loaded is not None
        assert loaded["findings"] == []

    def test_uncreatable_cache_dir_lints_like_no_cache(
        self, make_project, tmp_path, capsys
    ):
        root = make_project({"repro/a.py": "bad = x != 0.5\n"})
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a regular file: no directory can go under it
        args = [root, "--no-baseline", "--format", "json"]
        no_cache = lint_main([*args, "--no-cache"])
        expected = json.loads(capsys.readouterr().out)["findings"]
        code = lint_main([*args, "--cache-dir", str(blocker / "cache")])
        assert code == no_cache == 1
        assert json.loads(capsys.readouterr().out)["findings"] == expected

    def test_wrong_signature_misses(self, tmp_path):
        cache = LintCache(str(tmp_path / "c"))
        cache.save("a" * 64, "sig", {"findings": []})
        assert cache.load("a" * 64, "other") is None

    def test_entries_are_valid_sorted_json(self, make_project, tmp_path):
        root = make_project({"repro/a.py": "bad = x != 0.5\n"})
        cache_dir = str(tmp_path / "cache")
        lint(root, cache_dir)
        for name in sorted(os.listdir(cache_dir)):
            with open(os.path.join(cache_dir, name), encoding="utf-8") as fh:
                text = fh.read()
            doc = json.loads(text)
            assert json.dumps(doc, sort_keys=True) == text
