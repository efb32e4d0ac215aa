"""Every public example imports.

A name an example imports that was renamed or deleted fails here, not
only when the example runs.  Each example keeps its work under an
``if __name__ == "__main__"`` guard, so importing one runs nothing.
"""

import importlib.util
from pathlib import Path

import pytest

from repro.fleet.shards import clear_training_cache

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)


@pytest.fixture()
def fresh_training_cache():
    clear_training_cache()
    yield
    clear_training_cache()


def test_fleet_sweep_checkpoints_only_to_a_named_ledger(
    tmp_path, monkeypatch, capsys, fresh_training_cache
):
    path = next(p for p in EXAMPLES if p.stem == "fleet_sweep")
    spec = importlib.util.spec_from_file_location("example_fleet_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    argv = ["--serial", "--seeds", "1", "--days", "0.3"]

    assert module.main(argv) == 0
    assert list(tmp_path.iterdir()) == []

    assert module.main([*argv, "--ledger", "sweep.jsonl"]) == 0
    assert (tmp_path / "sweep.jsonl").exists()
    capsys.readouterr()
    assert module.main([*argv, "--ledger", "sweep.jsonl"]) == 0
    assert "1 resumed" in capsys.readouterr().out
