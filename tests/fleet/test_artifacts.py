"""Shared trained-model artifact store: hashing, tolerance, pre-warm.

The store's contract: the same training key addresses the same artifact
from any process; anything unreadable is a warning plus a cache miss
(never a crash); and the pre-warm pass trains each unique configuration
exactly once.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import ArtifactStoreWarning
from repro.fleet import RunResult, RunSpec, grid, run_fleet
from repro.fleet.artifacts import (
    ArtifactStore,
    active_artifact_store,
    configure_artifact_store,
    prewarm_training,
    train_key_digest,
)
from repro.fleet.shards import (
    cached_training,
    clear_training_cache,
    register_scenario_runner,
    register_training_plan,
    training_plan,
)

#: A representative training key: primitives, ParamSets, a config repr.
KEY = (
    "closed-loop",
    "ubf",
    (("n_kernels", 10),),
    11,
    34_560.0,
    ("cpu_utilization", "error_rate"),
    "DatasetConfig(horizon=34560.0, seed=11)",
)

TRAINED = "fake-trained-scenario"

#: In-process training counter (builder invocations observed here).
_BUILDS = {"n": 0}


def _trained_plan(spec: RunSpec):
    key = (TRAINED, spec.seeds()["train"], spec.horizon)

    def _build():
        _BUILDS["n"] += 1
        marker_dir = spec.option("train_marker_dir")
        if marker_dir:
            # One file per training event, unique per process+count, so
            # cross-process training is observable from the parent.
            name = f"train-{os.getpid()}-{_BUILDS['n']}.marker"
            Path(marker_dir, name).write_text(repr(key))
        return {"trained_for": key}

    return key, _build


def _trained_runner(spec: RunSpec) -> RunResult:
    trained = cached_training(*_trained_plan(spec))
    assert trained["trained_for"][0] == TRAINED
    return RunResult(spec=spec, availability=0.95, failures=0)


register_scenario_runner(TRAINED, _trained_runner, overwrite=True)
register_training_plan(TRAINED, _trained_plan, overwrite=True)


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_training_cache()
    _BUILDS["n"] = 0
    previous = active_artifact_store()
    yield
    configure_artifact_store(previous)
    clear_training_cache()


class TestDigest:
    def test_digest_is_stable_within_process(self):
        assert train_key_digest(KEY) == train_key_digest(KEY)
        assert train_key_digest(KEY) != train_key_digest(KEY[:-1])

    def test_digest_is_stable_across_processes(self):
        """A fresh interpreter (own hash seed) computes the same digest."""
        code = (
            "from repro.fleet.artifacts import train_key_digest;"
            f"print(train_key_digest({KEY!r}))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        env["PYTHONHASHSEED"] = "random"
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == train_key_digest(KEY)


class TestStore:
    def test_save_load_round_trip(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        assert store.load(KEY) is None
        assert not store.contains(KEY)
        store.save(KEY, {"model": [1.0, 2.0]})
        assert store.contains(KEY)
        assert len(store) == 1
        assert store.load(KEY) == {"model": [1.0, 2.0]}

    def test_corrupt_artifact_warns_and_misses(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        store.save(KEY, "model")
        Path(store.path_for(KEY)).write_bytes(b"not a pickle")
        with pytest.warns(ArtifactStoreWarning, match="unreadable"):
            assert store.load(KEY) is None

    def test_torn_artifact_warns_and_misses(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        path = Path(store.save(KEY, {"weights": list(range(1000))}))
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.warns(ArtifactStoreWarning):
            assert store.load(KEY) is None

    def test_key_mismatch_warns_and_misses(self, tmp_path):
        """An artifact copied under the wrong digest is rejected, not used."""
        store = ArtifactStore(str(tmp_path))
        other_key = KEY[:-1] + ("DatasetConfig(horizon=1.0, seed=9)",)
        store.save(KEY, "model")
        Path(store.path_for(other_key)).write_bytes(
            Path(store.path_for(KEY)).read_bytes()
        )
        with pytest.warns(ArtifactStoreWarning, match="mismatch"):
            assert store.load(other_key) is None

    def test_version_mismatch_warns_and_misses(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        path = Path(store.save(KEY, "model"))
        payload = pickle.loads(path.read_bytes())
        payload["version"] = 999
        path.write_bytes(pickle.dumps(payload))
        with pytest.warns(ArtifactStoreWarning, match="mismatch"):
            assert store.load(KEY) is None


class TestCachedTraining:
    def test_loads_from_store_without_building(self, tmp_path):
        store = configure_artifact_store(str(tmp_path))
        store.save(KEY, "published-model")

        def _forbidden_builder():
            raise AssertionError("builder must not run on a store hit")

        assert cached_training(KEY, _forbidden_builder) == "published-model"

    def test_corrupt_artifact_falls_back_to_retraining(self, tmp_path):
        store = configure_artifact_store(str(tmp_path))
        store.save(KEY, "model")
        Path(store.path_for(KEY)).write_bytes(b"garbage")
        with pytest.warns(ArtifactStoreWarning):
            assert cached_training(KEY, lambda: "retrained") == "retrained"
        # The retrained model was re-published for the next process.
        assert store.load(KEY) == "retrained"

    def test_build_publishes_to_store(self, tmp_path):
        store = configure_artifact_store(str(tmp_path))
        cached_training(KEY, lambda: "built")
        clear_training_cache()  # drop the memo: only the store remains
        assert cached_training(KEY, lambda: "rebuilt") == "built"


class TestPrewarm:
    def test_trains_each_unique_key_exactly_once(self, tmp_path):
        # 6 shards, 2 unique training configurations (train_seed pinned
        # per trio), horizon shared.
        specs = grid(
            [TRAINED], seeds=range(3), train_seed=7, horizon=100.0
        ) + grid([TRAINED], seeds=range(3, 6), train_seed=8, horizon=100.0)
        store = ArtifactStore(str(tmp_path))
        stats = prewarm_training(specs, store)
        assert stats == {
            "unique_keys": 2,
            "trained": 2,
            "reused": 0,
            "unplanned": 0,
        }
        assert _BUILDS["n"] == 2
        # Second pass: everything already published, nothing trains.
        stats = prewarm_training(specs, store)
        assert stats["trained"] == 0
        assert stats["reused"] == 2
        assert _BUILDS["n"] == 2

    def test_unplanned_scenarios_are_counted_not_trained(self, tmp_path):
        spec = RunSpec(scenario="no-pfm", seed=1, horizon=100.0)
        assert training_plan(spec) is None
        stats = prewarm_training([spec], ArtifactStore(str(tmp_path)))
        assert stats == {
            "unique_keys": 0,
            "trained": 0,
            "reused": 0,
            "unplanned": 1,
        }


class TestFleetIntegration:
    def test_workers_load_instead_of_training(self, tmp_path):
        """With a pre-warmed store, no worker process ever trains."""
        markers = tmp_path / "markers"
        markers.mkdir()
        specs = grid(
            [TRAINED],
            seeds=range(4),
            train_seed=7,
            horizon=100.0,
            options={"train_marker_dir": str(markers)},
        )
        store_root = str(tmp_path / "store")
        report = run_fleet(
            specs, backend="process", workers=2, artifact_store=store_root
        )
        assert len(report.results) == 4
        assert report.timing["artifact_store"] == store_root
        assert report.timing["prewarm"]["unique_keys"] == 1
        trained_in = {
            marker.name.split("-")[1] for marker in markers.glob("*.marker")
        }
        # Exactly one training event, and it happened in this (parent)
        # process during pre-warm — never in a pool worker.
        assert trained_in == {str(os.getpid())}
        assert len(list(markers.glob("*.marker"))) == 1

    def test_active_store_restored_after_run(self, tmp_path):
        sentinel = configure_artifact_store(str(tmp_path / "outer"))
        run_fleet(
            grid([TRAINED], seeds=[1], horizon=100.0),
            backend="serial",
            artifact_store=str(tmp_path / "inner"),
        )
        assert active_artifact_store() is sentinel
