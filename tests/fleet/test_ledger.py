"""Shard-ledger checkpointing: append, resume, and corruption tolerance."""

import json
import warnings

import pytest

from repro.errors import LedgerRoundTripWarning
from repro.fleet.ledger import ShardLedger
from repro.fleet.spec import RunResult, RunSpec
from repro.telecom.dataset import DatasetConfig


def _result(seed: int) -> RunResult:
    return RunResult(spec=RunSpec(seed=seed), availability=0.9, failures=seed)


class TestRoundTrip:
    def test_append_then_load(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = ShardLedger(str(path))
        for seed in (1, 2, 3):
            ledger.append(_result(seed))
        loaded = ShardLedger(str(path)).load()
        assert len(loaded) == 3
        for seed in (1, 2, 3):
            key = RunSpec(seed=seed).key()
            assert loaded[key].failures == seed

    def test_missing_file_loads_empty(self, tmp_path):
        ledger = ShardLedger(str(tmp_path / "absent.jsonl"))
        assert not ledger.exists()
        assert ledger.load() == {}

    def test_duplicate_keys_keep_last(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = ShardLedger(str(path))
        ledger.append(_result(1))
        updated = _result(1)
        updated.availability = 0.5
        ledger.append(updated)
        loaded = ledger.load()
        assert len(loaded) == 1
        assert loaded[RunSpec(seed=1).key()].availability == 0.5


class TestRoundTripValidation:
    """``default=repr`` writes must not silently burn work on resume."""

    def test_id_repr_options_warn_at_append_time(self, tmp_path):
        # An option value with CPython's default (memory-address) repr:
        # this process writes a line keyed on one address, the resuming
        # process computes a key from another — the shard re-runs on
        # every resume, forever.  That must be loud, not silent.
        spec = RunSpec(seed=1, options={"blob": object()})
        result = RunResult(spec=spec, availability=0.9, failures=0)
        ledger = ShardLedger(str(tmp_path / "ledger.jsonl"))
        with pytest.warns(LedgerRoundTripWarning, match="re-run on every"):
            ledger.append(result)

    def test_deterministic_rich_reprs_append_silently(self, tmp_path):
        # A dataclass config in options serializes via its repr, which
        # every process reproduces byte-for-byte — resume works, so the
        # append stays silent and the line restores under the same key.
        spec = RunSpec(seed=1, options={"dataset": DatasetConfig()})
        result = RunResult(spec=spec, availability=0.9, failures=0)
        ledger = ShardLedger(str(tmp_path / "ledger.jsonl"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", LedgerRoundTripWarning)
            ledger.append(result)
        assert spec.key() in ledger.load()

    def test_plain_specs_append_silently(self, tmp_path):
        ledger = ShardLedger(str(tmp_path / "ledger.jsonl"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", LedgerRoundTripWarning)
            ledger.append(_result(1))
        assert len(ledger.load()) == 1

    def test_json_roundtrips_flags_plain_json_specs(self):
        assert RunSpec(seed=1).json_roundtrips()
        assert RunSpec(
            seed=1, options={"attack_mtbf": 3600.0, "nested": {"a": [1, 2]}}
        ).json_roundtrips()
        # Rich objects fall off the plain-JSON path (repr fallback).
        assert not RunSpec(
            seed=1, options={"dataset": DatasetConfig()}
        ).json_roundtrips()


class TestCorruptionTolerance:
    def test_torn_tail_line_is_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = ShardLedger(str(path))
        ledger.append(_result(1))
        ledger.append(_result(2))
        # Simulate a crash mid-write: truncate the last line.
        text = path.read_text()
        path.write_text(text[: len(text) // 2 * 2 - 40])
        loaded = ShardLedger(str(path)).load()
        assert len(loaded) == 1

    def test_first_append_after_a_torn_tail_is_kept(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = ShardLedger(str(path))
        ledger.append(_result(1))
        intact = path.stat().st_size
        ledger.append(_result(2))
        with open(path, "r+b") as handle:
            handle.truncate((intact + path.stat().st_size) // 2)
        ledger.append(_result(2))
        ledger.append(_result(3))
        loaded = ShardLedger(str(path)).load()
        assert sorted(loaded) == sorted(RunSpec(seed=seed).key() for seed in (1, 2, 3))
        # The fragment stays a line of its own; nothing before it moved.
        assert len(path.read_bytes().splitlines()) == 4

    def test_blank_and_garbage_lines_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = ShardLedger(str(path))
        ledger.append(_result(1))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n")
            handle.write("not json at all\n")
            handle.write(json.dumps({"version": 1, "key": "x"}) + "\n")
        assert len(ShardLedger(str(path)).load()) == 1

    def test_line_with_an_invalid_spec_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = ShardLedger(str(path))
        ledger.append(_result(1))
        entry = json.loads(path.read_text())
        entry["result"]["spec"]["horizon"] = -1.0
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
        assert list(ShardLedger(str(path)).load()) == [RunSpec(seed=1).key()]

    def test_changed_result_value_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = ShardLedger(str(path))
        ledger.append(_result(1))
        ledger.append(
            RunResult(spec=RunSpec(seed=2), availability=0.987654, failures=2)
        )
        assert ledger.load()[RunSpec(seed=2).key()].availability == 0.987654
        text = path.read_text()
        assert text.count("0.987654") == 1
        path.write_text(text.replace("0.987654", "0.987655"))
        # The flipped digit costs the shard a re-run, never a wrong value.
        assert list(ShardLedger(str(path)).load()) == [RunSpec(seed=1).key()]

    def test_line_without_a_digest_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = ShardLedger(str(path))
        ledger.append(_result(1))
        entry = json.loads(path.read_text())
        assert entry["version"] == 2
        # A version-1 line: same result, no digest.
        del entry["digest"]
        entry["version"] = 1
        path.write_text(json.dumps(entry) + "\n")
        assert ShardLedger(str(path)).load() == {}

    def test_key_spec_mismatch_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = ShardLedger(str(path))
        ledger.append(_result(1))
        # Tamper: claim the entry belongs to a different shard.
        entry = json.loads(path.read_text())
        entry["key"] = RunSpec(seed=99).key()
        path.write_text(json.dumps(entry) + "\n")
        assert ShardLedger(str(path)).load() == {}


class TestStatusLines:
    def test_append_status_round_trips(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = ShardLedger(path)
        ledger.append(_result(1))
        ledger.append_status(
            RunSpec(seed=2).key(),
            "failed",
            kind="spec-deterministic",
            error="RuntimeError: boom",
            attempts=1,
        )
        state = ShardLedger(path).load_entries()
        assert set(state.results) == {RunSpec(seed=1).key()}
        assert state.statuses == {
            RunSpec(seed=2).key(): {
                "status": "failed",
                "kind": "spec-deterministic",
                "error": "RuntimeError: boom",
                "attempts": 1,
            }
        }

    def test_unknown_status_rejected(self, tmp_path):
        from repro.errors import ReproError

        ledger = ShardLedger(str(tmp_path / "ledger.jsonl"))
        with pytest.raises(ReproError, match="unknown ledger status"):
            ledger.append_status("k", "exploded", kind="x", error="e", attempts=1)

    def test_last_line_per_key_wins_both_directions(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = ShardLedger(path)
        key = RunSpec(seed=1).key()
        # failed -> retried -> succeeded: the result supersedes the status.
        ledger.append_status(key, "failed", kind="k", error="e", attempts=1)
        ledger.append(_result(1))
        state = ShardLedger(path).load_entries()
        assert key in state.results and key not in state.statuses
        # ...and a later quarantine supersedes the stale result.
        ledger.append_status(key, "quarantined", kind="k", error="e", attempts=3)
        state = ShardLedger(path).load_entries()
        assert key in state.statuses and key not in state.results

    def test_load_drops_status_lines_for_plain_result_readers(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        ledger = ShardLedger(path)
        ledger.append(_result(1))
        ledger.append_status(
            RunSpec(seed=2).key(), "failed", kind="k", error="e", attempts=1
        )
        assert set(ledger.load()) == {RunSpec(seed=1).key()}
