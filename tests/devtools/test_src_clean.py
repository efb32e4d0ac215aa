"""Regression gate: the shipped src/ tree stays pfmlint-clean.

Runs the full rule set over ``src`` in-process (no subprocess, no
installed entry point needed) and asserts nothing new slipped past the
committed baseline.  This is the same gate CI runs via
``python -m repro.devtools.lint src``.
"""

import re
from pathlib import Path

from repro.devtools.lint.baseline import DEFAULT_BASELINE, load_baseline, split_baselined
from repro.devtools.lint.engine import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_has_no_unbaselined_findings():
    result = lint_paths([str(REPO_ROOT / "src")])
    assert result.files_checked > 100  # the whole tree, not a subset
    baseline = load_baseline(str(REPO_ROOT / DEFAULT_BASELINE))
    new, _ = split_baselined(result.findings, baseline)
    details = "\n".join(
        f"{f.location()} {f.rule} {f.message}" for f in new
    )
    assert not new, f"new pfmlint findings in src/:\n{details}"


#: An inline suppression and what follows its rule list.
_SUPPRESSION = re.compile(
    r"#\s*pfmlint:\s*disable=[A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*(?P<rest>.*)"
)


def test_every_inline_suppression_in_src_gives_a_reason():
    """A suppression names why the rule does not apply: ``-- reason``."""
    unexplained = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for lineno, line in enumerate(lines, start=1):
            match = _SUPPRESSION.search(line)
            if match and not re.match(r"\s*--\s*\S", match["rest"]):
                unexplained.append(f"{path.relative_to(REPO_ROOT)}:{lineno}")
    assert unexplained == []
