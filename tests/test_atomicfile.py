"""The shared atomic writer, and the two callers that publish through it."""

import os
import pickle
from pathlib import Path

import pytest

from repro.atomicfile import write_atomic
from repro.fleet.artifacts import ArtifactStore
from repro.telemetry.tracing import _atomic_write_lines


def _fail(*args, **kwargs):
    raise OSError("disk full")


class TestWriteAtomic:
    def test_publishes_exact_bytes_and_creates_the_directory(self, tmp_path):
        path = tmp_path / "nested" / "entry.json"
        write_atomic(str(path), b'{"a": 1}\n')
        assert path.read_bytes() == b'{"a": 1}\n'
        write_atomic(str(path), b"second")
        assert path.read_bytes() == b"second"
        assert os.listdir(path.parent) == ["entry.json"]

    @pytest.mark.parametrize("step", ["fsync", "replace"])
    def test_failure_keeps_the_old_file_and_removes_the_temp(
        self, tmp_path, monkeypatch, step
    ):
        path = tmp_path / "entry.json"
        path.write_bytes(b"old")
        monkeypatch.setattr(os, step, _fail)
        with pytest.raises(OSError, match="disk full"):
            write_atomic(str(path), b"new")
        assert path.read_bytes() == b"old"
        assert os.listdir(tmp_path) == ["entry.json"]


def _artifact_save(root):
    ArtifactStore(root).save(("key",), {"model": [1.0]})


def _trace_write(root):
    _atomic_write_lines(os.path.join(root, "lane.jsonl"), ['{"seq": 0}'])


class TestFailedWritesLeaveNothing:
    """A failed write through any caller leaves the directory as it was."""

    @pytest.mark.parametrize(
        "write", [_artifact_save, _trace_write],
        ids=["artifact-store", "trace-sidecar"],
    )
    def test_failed_publish(self, tmp_path, monkeypatch, write):
        root = str(tmp_path)
        (tmp_path / "existing.json").write_text("{}")
        monkeypatch.setattr(os, "replace", _fail)
        with pytest.raises(OSError, match="disk full"):
            write(root)
        assert os.listdir(root) == ["existing.json"]

    def test_unpicklable_artifact(self, tmp_path):
        with pytest.raises((pickle.PicklingError, AttributeError)):
            ArtifactStore(str(tmp_path)).save(("key",), lambda: None)
        assert os.listdir(tmp_path) == []


class TestByteLayout:
    """Each caller hands the helper the bytes it always wrote."""

    def test_trace_lines_end_with_a_newline(self, tmp_path):
        path = Path(_atomic_write_lines(str(tmp_path / "lane.jsonl"), ["a", "b"]))
        assert path.read_bytes() == b"a\nb\n"
        _atomic_write_lines(str(path), [])
        assert path.read_bytes() == b""
