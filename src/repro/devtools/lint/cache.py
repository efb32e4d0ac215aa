"""Content-addressed per-file analysis cache (the warm-lint fast path).

Same shape as :mod:`repro.fleet.artifacts`: entries are addressed by
content digest, published with :func:`repro.atomicfile.write_atomic`,
and a corrupt or torn entry is treated as a miss -- the worst case is
re-analyzing one file, never a wrong report.  Each entry carries the
sha256 of its own canonical JSON, so a damaged entry that still parses
is a miss too.

An entry's key is ``sha256(path, source)`` x the **engine signature**
-- a digest of the analyzer version and the selected rules with their
per-rule versions.  Editing a file, bumping any selected rule's
``version``, changing the selection, or upgrading the summary extractor
each produce a different key, so a stale entry can never satisfy a
fresh lookup; there is no invalidation logic to get wrong.  The display
path is folded into the content digest because entries embed it
(finding locations, the summary's module name).

Stored per entry: the file's per-file findings, inline-suppression
count, the suppression line map, and the module summary the project
phase consumes.  Project-phase findings are *not* cached -- they depend
on every file at once and recomputing them from warm summaries is the
cheap part of a run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os

from repro.atomicfile import write_atomic
from repro.devtools.lint.findings import Finding

#: Default cache directory, resolved against the working directory.
DEFAULT_CACHE_DIR = ".pfmlint-cache"

#: Bumped when the entry layout itself changes.
CACHE_VERSION = 2


def source_digest(source: str) -> str:
    """sha256 of the module source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def file_digest(display_path: str, source: str) -> str:
    """sha256 over (path, source) -- the per-file cache key.

    The path participates because cached findings and module summaries
    embed it: two files with byte-identical contents (an empty
    ``__init__.py``, a copy-pasted stub) must not share an entry, or
    one file's cached findings would be reported against the other.
    """
    payload = f"{display_path}\x00{source}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _entry_digest(entry: dict) -> str:
    """sha256 of an entry's canonical JSON (the ``digest`` field excluded)."""
    return hashlib.sha256(
        json.dumps(entry, sort_keys=True).encode("utf-8")
    ).hexdigest()


def engine_signature(analyzer_version: int, rules) -> str:
    """Digest of everything besides the source that shapes an entry.

    ``rules`` is the selected rule list; each contributes its id and
    ``version``, so tightening one rule invalidates exactly every entry
    (the per-file phase always re-runs, findings re-fingerprint).
    """
    payload = json.dumps(
        {
            "cache": CACHE_VERSION,
            "analyzer": analyzer_version,
            "rules": sorted((rule.id, rule.version) for rule in rules),
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class LintCache:
    """One directory of ``<source_sha>-<engine_sig>.json`` entries."""

    def __init__(self, root: str) -> None:
        self.root = str(root)
        self.hits = 0
        self.misses = 0

    def entry_path(self, src_sha: str, signature: str) -> str:
        return os.path.join(self.root, f"{src_sha[:40]}-{signature}.json")

    def load(self, src_sha: str, signature: str) -> dict | None:
        """The cached analysis for this (source, engine) pair, or None."""
        path = self.entry_path(src_sha, signature)
        try:
            with open(path, "rb") as handle:
                entry = json.loads(handle.read())
        except (OSError, ValueError):
            self.misses += 1
            return None
        if (
            not isinstance(entry, dict)
            or entry.pop("digest", None) != _entry_digest(entry)
            or entry.get("cache_version") != CACHE_VERSION
        ):
            self.misses += 1
            return None
        self.hits += 1
        return entry

    def save(self, src_sha: str, signature: str, entry: dict) -> None:
        """Atomically publish one entry; an unwritable cache is non-fatal."""
        body = {**entry, "cache_version": CACHE_VERSION}
        data = json.dumps(
            {**body, "digest": _entry_digest(body)}, sort_keys=True
        ).encode("utf-8")
        # Best-effort cache: an unwritable entry only costs warmth.
        with contextlib.suppress(OSError):
            write_atomic(self.entry_path(src_sha, signature), data)


def findings_to_entry(findings: list[Finding]) -> list[dict]:
    """Serialize per-file findings for an entry."""
    return [f.to_json_dict() for f in findings]


def findings_from_entry(rows: list[dict]) -> list[Finding]:
    """Rebuild :class:`Finding` objects from a cached entry."""
    return [
        Finding(
            path=row["path"],
            line=row["line"],
            col=row["col"],
            rule=row["rule"],
            message=row["message"],
            snippet=row.get("snippet", ""),
            rule_version=row.get("rule_version", 1),
        )
        for row in rows
    ]
