"""Hypothesis fuzzing of the three tolerant readers.

The shard ledger, the trace-sidecar reader and the artifact store each
promise that damage costs work, never a crash or a wrong answer: a torn
or corrupt record reads as a miss or a skipped line.  Each property
writes real records, damages the bytes (truncation, or one byte changed
anywhere) and reads them back.  The artifact store is fuzzed with
truncation only: a changed byte inside a pickle can call arbitrary
constructors, which no reader can make safe.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ArtifactStoreWarning
from repro.fleet.artifacts import ArtifactStore
from repro.fleet.ledger import ShardLedger
from repro.fleet.spec import RunResult, RunSpec
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.tracing import TraceContext, read_trace_file, write_shard_trace

#: ("truncate", cut position as a fraction) or ("flip", index fraction, xor mask).
DAMAGE = st.one_of(
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
    st.tuples(st.just("flip"), st.floats(0.0, 1.0), st.integers(1, 255)),
)


def _damage(data: bytes, damage) -> tuple[bytes, list[bool]]:
    """The damaged bytes, and per line of ``data`` whether it survived.

    A truncation keeps each line whose content precedes the cut (its
    newline may go).  A changed byte spoils its own line, and the next
    line too when the byte was the newline between them.
    """
    spans, start = [], 0
    for line in data.splitlines(keepends=True):
        spans.append((start, start + len(line)))
        start += len(line)
    if damage[0] == "truncate":
        cut = int(damage[1] * len(data))
        return data[:cut], [end - 1 <= cut for _, end in spans]
    index = min(int(damage[1] * len(data)), len(data) - 1)
    changed = data[:index] + bytes([data[index] ^ damage[2]]) + data[index + 1 :]
    return changed, [not start - 1 <= index < end for start, end in spans]


def _write(directory: str, name: str, data: bytes) -> str:
    path = os.path.join(directory, name)
    with open(path, "wb") as handle:
        handle.write(data)
    return path


# ----------------------------------------------------------------------
# Shard ledger
# ----------------------------------------------------------------------

LEDGER_RESULTS = [
    RunResult(
        spec=RunSpec(
            seed=seed,
            horizon=10.0 * seed,
            variables=("cpu_utilization",),
            options={"attack_mtbf": 60.0 * seed},
        ),
        availability=1.0 - seed / 100.0,
        failures=seed,
        outcome_matrix={"TP": {"count": seed, "acted": 1}},
        wall_seconds=0.5,
    )
    for seed in (1, 2, 3)
]


def _ledger_bytes() -> bytes:
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "ledger.jsonl")
        ledger = ShardLedger(path)
        for result in LEDGER_RESULTS:
            ledger.append(result)
        with open(path, "rb") as handle:
            return handle.read()


LEDGER_BYTES = _ledger_bytes()


@settings(max_examples=150, deadline=None)
@given(DAMAGE)
def test_ledger_returns_the_intact_results_and_only_real_keys(damage):
    data, intact = _damage(LEDGER_BYTES, damage)
    with tempfile.TemporaryDirectory() as directory:
        ledger = ShardLedger(_write(directory, "ledger.jsonl", data))
        loaded = ledger.load()
        # Whatever the damage, appending every result again restores all.
        for result in LEDGER_RESULTS:
            ledger.append(result)
        restored = ledger.load()
    written = {result.spec.key(): result for result in LEDGER_RESULTS}
    assert set(loaded) <= set(written)
    for key, result in loaded.items():
        assert result.spec.key() == key
        # A changed value is a skipped line, never a different result.
        assert result.to_json_dict() == written[key].to_json_dict()
    for survived, result in zip(intact, LEDGER_RESULTS):
        if survived:
            key = result.spec.key()
            assert loaded[key].to_json_dict() == result.to_json_dict()
    assert {key: result.to_json_dict() for key, result in restored.items()} == {
        key: result.to_json_dict() for key, result in written.items()
    }


# ----------------------------------------------------------------------
# Trace sidecars
# ----------------------------------------------------------------------


def _sidecar_bytes() -> bytes:
    hub = TelemetryHub()
    now = [0.0]
    hub.bind_clock(lambda: now[0])
    for step in range(3):
        with hub.span("shard.work", step=step):
            hub.emit("shard.tick", step=step, note="ok")
            now[0] += 1.5
    with tempfile.TemporaryDirectory() as directory:
        context = TraceContext(trace_id="fleet-fuzz", root=directory)
        path = write_shard_trace(context, "closed-loop:ubf:seed1:0", [hub])
        with open(path, "rb") as handle:
            return handle.read()


SIDECAR_BYTES = _sidecar_bytes()


@settings(max_examples=150, deadline=None)
@given(DAMAGE)
def test_trace_reader_returns_the_records_of_the_intact_lines(damage):
    data, intact = _damage(SIDECAR_BYTES, damage)
    with tempfile.TemporaryDirectory() as directory:
        full_meta, full_records = read_trace_file(
            _write(directory, "full.jsonl", SIDECAR_BYTES)
        )
        meta, records = read_trace_file(_write(directory, "damaged.jsonl", data))
    if intact[0]:
        assert meta == full_meta
    expected = [doc for doc, ok in zip(full_records, intact[1:]) if ok]
    if damage[0] == "truncate":
        # No proper prefix of a JSON object parses.
        assert records == expected
    else:
        # The changed line may still parse; every intact line is there,
        # in order.
        remaining = iter(records)
        assert all(doc in remaining for doc in expected)
        assert len(records) <= len(expected) + 2


# ----------------------------------------------------------------------
# Artifact store (truncation only)
# ----------------------------------------------------------------------

ARTIFACT_KEY = ("closed-loop", "ubf", (), 11, 3600.0)
ARTIFACT = {"weights": np.linspace(0.0, 1.0, 17), "threshold": 0.42}


@settings(max_examples=60, deadline=None)
@given(st.floats(0.0, 1.0))
def test_truncated_artifact_is_a_miss(fraction):
    with tempfile.TemporaryDirectory() as directory:
        store = ArtifactStore(directory)
        path = store.save(ARTIFACT_KEY, ARTIFACT)
        with open(path, "rb") as handle:
            data = handle.read()
        truncated, _ = _damage(data, ("truncate", fraction))
        _write(directory, os.path.basename(path), truncated)
        if truncated == data:
            loaded = store.load(ARTIFACT_KEY)
            assert loaded["threshold"] == ARTIFACT["threshold"]
            assert np.array_equal(loaded["weights"], ARTIFACT["weights"])
        else:
            with pytest.warns(ArtifactStoreWarning):
                assert store.load(ARTIFACT_KEY) is None
