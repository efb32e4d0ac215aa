"""The shard ledger: JSONL checkpoint/resume for partially-run grids.

Every completed shard is appended as one self-describing JSON line and
flushed immediately, so a fleet killed mid-grid loses at most the shards
that were still in flight.  On resume the runner replays the ledger,
keeps every line whose key matches a spec in the requested grid, and
re-runs only the missing shards.

The reader is deliberately forgiving: a truncated final line (the
signature of a hard kill during a write) or a line that no longer parses
is skipped — the worst case is re-running a shard, never crashing or
double-counting one.  The next append ends a torn final line first, so
the fragment stays a skipped line of its own.  Every result line carries
the sha256 of its result's canonical JSON, so a line whose values
changed (one flipped digit in an availability) is skipped the same way
instead of loading a result no shard produced.

Besides completed results, the ledger records *failure* checkpoints:
``status: "failed"`` for a shard whose own code raised (deterministic —
re-running reproduces it) and ``status: "quarantined"`` for a shard that
kept taking workers down.  Resume skips both by default instead of
re-executing known failures forever; ``run_fleet(retry_failed=True)``
drops them from the replay and runs the shards again.  A later line for
the same key always supersedes an earlier one, so a retried shard that
succeeds simply overwrites its failure record.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import warnings
from dataclasses import dataclass, field

from repro.errors import LedgerRoundTripWarning, ReproError
from repro.fleet.spec import RunResult

#: Schema tag so future ledger formats can be detected, not guessed.
#: Version 2 added the result digest; version-1 lines have none, so they
#: load as torn lines and their shards re-run.
LEDGER_VERSION = 2

#: The two failure statuses a ledger line may carry.
STATUS_FAILED = "failed"
STATUS_QUARANTINED = "quarantined"


@dataclass
class LedgerState:
    """Everything a ledger replay recovered, keyed by spec key."""

    results: dict[str, RunResult] = field(default_factory=dict)
    #: key -> {"status", "kind", "error", "attempts"} for shards whose
    #: last ledger line is a failure checkpoint.
    statuses: dict[str, dict] = field(default_factory=dict)

#: The signature of CPython's default ``object.__repr__``: a memory
#: address, which no other process can reproduce.
_ID_REPR = re.compile(r" at 0x[0-9a-fA-F]+")


def _result_digest(result: dict) -> str:
    """SHA-256 of the canonical JSON form of a parsed ledger result."""
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ShardLedger:
    """Append-only record of completed shards at ``path``."""

    def __init__(self, path: str) -> None:
        self.path = path

    def exists(self) -> bool:
        return os.path.exists(self.path)

    def load(self) -> dict[str, RunResult]:
        """Completed results keyed by spec key (tolerant of torn tails)."""
        return self.load_entries().results

    def load_entries(self) -> LedgerState:
        """Replay every line: completed results *and* failure statuses.

        Lines are applied in file order and the last line per key wins,
        so a shard that failed, was retried, and succeeded ends up as a
        result; one that succeeded under an old spec layout and failed
        under the new one ends up failed.  Torn or unparseable lines,
        result lines whose digest is missing or does not match their
        result, and lines whose spec fails validation, are skipped (the
        worst case is re-running that shard).
        """
        state = LedgerState()
        if not self.exists():
            return state
        with open(self.path, "r", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                    key = doc["key"]
                    if doc.get("status") in (STATUS_FAILED, STATUS_QUARANTINED):
                        state.statuses[key] = {
                            name: doc.get(name)
                            for name in ("status", "kind", "error", "attempts")
                        }
                        state.results.pop(key, None)
                        continue
                    if doc.get("digest") != _result_digest(doc["result"]):
                        continue  # changed bytes, or a version-1 line
                    result = RunResult.from_json_dict(doc["result"])
                except (ValueError, KeyError, TypeError, ReproError):
                    # Torn write, a spec that does not JSON-round-trip
                    # (rich config objects in options) or one that fails
                    # validation: re-run that shard.
                    continue
                if key != result.spec.key():
                    continue  # stale line from an older spec layout
                state.results[key] = result
                state.statuses.pop(key, None)
        return state

    def append(self, result: RunResult) -> None:
        """Durably record one completed shard.

        ``default=repr`` keeps the write from ever crashing on a rich
        options value, but that tolerance has two resume-breaking
        failure shapes, both validated here at append time instead of
        silently burning work on every later resume:

        - the line does not re-parse into a result whose spec key
          matches — :meth:`load` will drop it;
        - a value fell back to an *id-based* repr (``... at 0x...``).
          Within this process the re-parsed key still matches, but in
          the resuming process the fresh spec reprs a different address,
          its key never matches the line, and the shard re-runs forever.
          (Deterministic reprs — dataclass configs and the like — are
          fine and stay silent.)

        Either way a :class:`~repro.errors.LedgerRoundTripWarning` names
        the shard; the line is still written, since it remains useful to
        humans and to non-resume tooling.
        """
        key = result.spec.key()
        # Digest what the reader will parse: ``default=repr`` values are
        # strings there, tuples lists and every mapping key a string.
        payload = json.loads(json.dumps(result.to_json_dict(), default=repr))
        line = json.dumps(
            {
                "version": LEDGER_VERSION,
                "key": key,
                "digest": _result_digest(payload),
                "result": payload,
            }
        )
        problem = self._round_trip_problem(line, key)
        if problem is not None:
            warnings.warn(
                LedgerRoundTripWarning(f"shard {key}: {problem}"),
                stacklevel=2,
            )
        self._write_line(line)

    def append_status(
        self,
        key: str,
        status: str,
        kind: str,
        error: str,
        attempts: int,
    ) -> None:
        """Durably record one *failed* or *quarantined* shard.

        ``error`` is a plain one-line rendering (never a pickled
        exception), so status lines always round-trip.  Readers that
        predate status lines skip them harmlessly (no ``result`` field).
        """
        if status not in (STATUS_FAILED, STATUS_QUARANTINED):
            raise ReproError(f"unknown ledger status {status!r}")
        self._write_line(
            json.dumps(
                {
                    "version": LEDGER_VERSION,
                    "key": key,
                    "status": status,
                    "kind": kind,
                    "error": error,
                    "attempts": attempts,
                }
            )
        )

    def _write_line(self, line: str) -> None:
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a+b") as handle:
            if handle.seek(0, os.SEEK_END) > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    # End a torn tail, or this line would fuse with it.
                    line = "\n" + line
            handle.write(line.encode("utf-8") + b"\n")
            handle.flush()
            os.fsync(handle.fileno())

    @staticmethod
    def _round_trip_problem(line: str, key: str) -> str | None:
        """Why :meth:`load` would fail to restore this line (or ``None``)."""
        try:
            doc = json.loads(line)
            restored = RunResult.from_json_dict(doc["result"])
        except (ValueError, KeyError, TypeError, ReproError):
            return (
                "does not survive the ledger's JSON round trip; it will be "
                "dropped and re-run on every resume"
            )
        if restored.spec.key() != key:
            return (
                "re-parses to a different spec key; it will be dropped and "
                "re-run on every resume"
            )
        if _ID_REPR.search(line):
            return (
                "serialized through a memory-address repr, which the "
                "resuming process cannot reproduce; it will re-run on every "
                "resume (pass plain JSON values in spec options instead)"
            )
        return None
