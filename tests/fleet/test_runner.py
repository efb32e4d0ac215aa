"""Fleet runner mechanics on a cheap registered scenario.

The fake runner is module-level and registered at import time, so the
process-pool workers (forked after imports) inherit it — the same
mechanism the real campaign runners rely on.
"""

import json
import warnings

import pytest

from repro.errors import (
    ConfigurationError,
    FleetConfigWarning,
    FleetExecutionError,
)
from repro.fleet import RunResult, RunSpec, grid, run_fleet
from repro.fleet.ledger import ShardLedger
from repro.fleet.runner import default_chunk_size
from repro.fleet.shards import execute_spec, register_scenario_runner

FAKE = "fake-scenario"
FAKE_BOOM = "fake-boom"


def _fake_runner(spec: RunSpec) -> RunResult:
    # Deterministic in the spec alone — the fleet invariant in miniature.
    return RunResult(
        spec=spec,
        availability=0.9 + (spec.seed % 10) / 100.0,
        failures=spec.seed % 3,
        wall_seconds=0.001 * spec.seed,
    )


def _boom_runner(spec: RunSpec) -> RunResult:
    if spec.seed % 2 == 0:
        raise RuntimeError(f"shard {spec.seed} exploded")
    return _fake_runner(spec)


register_scenario_runner(FAKE, _fake_runner, overwrite=True)
register_scenario_runner(FAKE_BOOM, _boom_runner, overwrite=True)


class TestValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            run_fleet(grid([FAKE], seeds=[1]), backend="threads")

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            run_fleet([], backend="serial")

    def test_duplicate_shards_rejected(self):
        spec = RunSpec(scenario=FAKE, seed=1)
        with pytest.raises(ConfigurationError, match="duplicate"):
            run_fleet([spec, spec], backend="serial")

    def test_unknown_scenario_lists_known_names(self):
        with pytest.raises(ConfigurationError, match="no-pfm"):
            execute_spec(RunSpec(scenario="nonsense"))

    def test_serial_with_workers_warns_instead_of_silently_ignoring(self):
        with pytest.warns(FleetConfigWarning, match="workers=8"):
            run_fleet(grid([FAKE], seeds=[1]), backend="serial", workers=8)

    def test_serial_with_one_worker_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", FleetConfigWarning)
            run_fleet(grid([FAKE], seeds=[1]), backend="serial", workers=1)
            run_fleet(grid([FAKE], seeds=[1]), backend="serial", workers=None)

    def test_invalid_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError, match="chunk_size"):
            run_fleet(grid([FAKE], seeds=[1]), backend="serial", chunk_size=0)


class TestBackends:
    def test_serial_runs_all_shards(self):
        specs = grid([FAKE], seeds=range(6))
        report = run_fleet(specs, backend="serial")
        assert len(report.results) == 6
        assert report.timing["backend"] == "serial"
        assert report.timing["executed"] == 6

    def test_results_ordered_by_key_not_completion(self):
        specs = grid([FAKE], seeds=[9, 1, 5])
        report = run_fleet(specs, backend="serial")
        keys = [r.spec.key() for r in report.results]
        assert keys == sorted(keys)

    def test_progress_callback_sees_every_shard(self):
        seen = []
        run_fleet(
            grid([FAKE], seeds=range(4)),
            backend="serial",
            progress=lambda done, total, result: seen.append((done, total)),
        )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


class TestResume:
    def test_resume_runs_only_missing_shards(self, tmp_path):
        ledger_path = str(tmp_path / "fleet.jsonl")
        specs = grid([FAKE], seeds=range(6))
        # First pass: only half the grid completes (simulated kill).
        first = run_fleet(specs[:3], backend="serial", ledger_path=ledger_path)
        assert first.timing["executed"] == 3
        # Second pass over the full grid resumes from the ledger.
        executed = []
        second = run_fleet(
            specs,
            backend="serial",
            ledger_path=ledger_path,
            progress=lambda done, total, result: executed.append(result.spec.seed),
        )
        assert second.timing["resumed_from_ledger"] == 3
        assert second.timing["executed"] == 3
        assert sorted(executed) == [3, 4, 5]  # progress fires for new shards only
        assert len(second.results) == 6

    def test_resumed_report_identical_to_uninterrupted(self, tmp_path):
        specs = grid([FAKE], seeds=range(5))
        uninterrupted = run_fleet(specs, backend="serial")
        ledger_path = str(tmp_path / "fleet.jsonl")
        run_fleet(specs[:2], backend="serial", ledger_path=ledger_path)
        resumed = run_fleet(specs, backend="serial", ledger_path=ledger_path)
        assert resumed.aggregate_json() == uninterrupted.aggregate_json()

    def test_ledger_ignores_shards_outside_grid(self, tmp_path):
        ledger_path = str(tmp_path / "fleet.jsonl")
        run_fleet(grid([FAKE], seeds=[99]), backend="serial", ledger_path=ledger_path)
        report = run_fleet(
            grid([FAKE], seeds=[1]), backend="serial", ledger_path=ledger_path
        )
        assert report.timing["resumed_from_ledger"] == 0
        assert [r.spec.seed for r in report.results] == [1]


class TestChunking:
    def test_default_chunk_size_serial_streams_shard_by_shard(self):
        assert default_chunk_size(100, workers=1) == 1

    def test_default_chunk_size_makes_two_waves_per_worker(self):
        assert default_chunk_size(16, workers=4) == 2  # 8 chunks, 2 waves
        assert default_chunk_size(3, workers=4) == 1

    def test_chunked_process_matches_serial_byte_for_byte(self):
        specs = grid([FAKE], seeds=range(8))
        serial = run_fleet(specs, backend="serial")
        chunked = run_fleet(specs, backend="process", workers=2, chunk_size=3)
        assert serial.aggregate_json() == chunked.aggregate_json()
        assert chunked.timing["chunks"] == 3
        assert chunked.timing["chunk_size"] == 3

    def test_oversized_chunk_is_one_submission(self):
        report = run_fleet(grid([FAKE], seeds=range(4)), backend="serial",
                           chunk_size=100)
        assert report.timing["chunks"] == 1
        assert len(report.results) == 4


class TestDeterminism:
    """Regression tests for the unordered-``wait(...)``-set bug (PFM004):

    ledger line order, progress order, and which failure propagates were
    all completion-order-dependent; they are now spec-key-ordered.
    """

    @staticmethod
    def _ledger_keys(path) -> list[str]:
        with open(path, encoding="utf-8") as handle:
            return [json.loads(line)["key"] for line in handle if line.strip()]

    def test_ledger_line_order_is_key_sorted_and_stable(self, tmp_path):
        specs = grid([FAKE], seeds=[9, 1, 5, 3, 7, 2])
        orders = []
        for run in range(2):
            path = str(tmp_path / f"run{run}.jsonl")
            run_fleet(specs, backend="process", workers=2, ledger_path=path)
            orders.append(self._ledger_keys(path))
        assert orders[0] == orders[1] == sorted(orders[0])

    def test_serial_and_process_ledgers_agree_on_order(self, tmp_path):
        specs = grid([FAKE], seeds=[4, 8, 2, 6])
        serial_path = str(tmp_path / "serial.jsonl")
        process_path = str(tmp_path / "process.jsonl")
        run_fleet(specs, backend="serial", ledger_path=serial_path)
        run_fleet(
            specs, backend="process", workers=2, ledger_path=process_path
        )
        assert self._ledger_keys(serial_path) == self._ledger_keys(process_path)

    def test_progress_fires_in_key_order(self):
        seen = []
        run_fleet(
            grid([FAKE], seeds=[9, 1, 5]),
            backend="process",
            workers=2,
            progress=lambda done, total, result: seen.append(
                result.spec.key()
            ),
        )
        assert seen == sorted(seen)
        assert len(seen) == 3

    def test_smallest_key_failure_first_serial(self):
        # Seeds 2, 4, 6 all explode; key order is seed2 < seed4 < seed6,
        # so shard 2 fails first, scheduling stops, and the aggregate
        # error leads with shard 2 on every run.
        with pytest.raises(FleetExecutionError, match="shard 2 exploded") as info:
            run_fleet(grid([FAKE_BOOM], seeds=[6, 2, 4]), backend="serial")
        assert ":seed2:" in info.value.failures[0]["key"]
        assert isinstance(info.value.__cause__, RuntimeError)

    def test_all_failures_reported_process(self):
        # One chunk holds every failing shard, so all three failures are
        # observed — and every one of them must appear in the aggregate
        # error, in spec-key order, not just the first.
        with pytest.raises(FleetExecutionError) as info:
            run_fleet(
                grid([FAKE_BOOM], seeds=[6, 2, 4]),
                backend="process",
                workers=2,
                chunk_size=3,
            )
        keys = [record["key"] for record in info.value.failures]
        assert keys == sorted(keys)
        assert len(keys) == 3
        for seed in (2, 4, 6):
            assert f"shard {seed} exploded" in str(info.value)


class TestFailures:
    def test_process_failure_checkpoints_completed_shards(self, tmp_path):
        ledger_path = str(tmp_path / "fleet.jsonl")
        specs = grid([FAKE_BOOM], seeds=[1, 2, 3])
        with pytest.raises(FleetExecutionError, match="exploded"):
            run_fleet(
                specs, backend="process", workers=2, ledger_path=ledger_path
            )
        completed = ShardLedger(ledger_path).load()
        assert all(r.spec.seed % 2 == 1 for r in completed.values())
        # The failure itself is checkpointed too, so the resumed grid does
        # not re-run the known-failed shard — it reports it from the ledger.
        with pytest.raises(FleetExecutionError, match=r"from ledger") as info:
            run_fleet(specs, backend="serial", ledger_path=ledger_path)
        assert info.value.failures[0]["source"] == "ledger"

    def test_serial_failure_propagates(self):
        with pytest.raises(FleetExecutionError, match="exploded"):
            run_fleet(grid([FAKE_BOOM], seeds=[2]), backend="serial")

    def test_failure_cancels_unstarted_shards_but_keeps_finished(
        self, tmp_path
    ):
        """cancel_futures semantics: stop scheduling, keep what finished.

        Key order is seed1 < seed2 < seed3; seed1 completes and is
        checkpointed, seed2 explodes, and seed3 — still queued — is
        abandoned rather than executed or waited for.
        """
        ledger_path = str(tmp_path / "fleet.jsonl")
        executed = []
        with pytest.raises(FleetExecutionError, match="shard 2 exploded"):
            run_fleet(
                grid([FAKE_BOOM], seeds=[1, 2, 3]),
                backend="serial",
                ledger_path=ledger_path,
                progress=lambda done, total, r: executed.append(r.spec.seed),
            )
        assert executed == [1]
        completed = ShardLedger(ledger_path).load()
        assert sorted(r.spec.seed for r in completed.values()) == [1]
        # The crashed grid resumes from the ledger: shard 1 is restored,
        # shard 2 is a recorded failure (skipped, re-reported), and shard
        # 3 finally runs — the resume still fails overall, but the grid's
        # runnable remainder is now fully checkpointed.
        with pytest.raises(FleetExecutionError, match="shard 2 exploded"):
            run_fleet(
                grid([FAKE_BOOM], seeds=[1, 2, 3]),
                backend="serial",
                ledger_path=ledger_path,
            )
        completed = ShardLedger(ledger_path).load()
        assert sorted(r.spec.seed for r in completed.values()) == [1, 3]

    def test_resume_after_failure_completes_the_grid(self, tmp_path):
        """A fixed grid (failure removed) finishes from the checkpoint."""
        ledger_path = str(tmp_path / "fleet.jsonl")
        with pytest.raises(FleetExecutionError):
            run_fleet(
                grid([FAKE_BOOM], seeds=[1, 2, 3]),
                backend="process",
                workers=2,
                ledger_path=ledger_path,
            )
        survivors = grid([FAKE_BOOM], seeds=[1, 3])
        report = run_fleet(
            survivors, backend="process", workers=2, ledger_path=ledger_path
        )
        assert len(report.results) == 2
        assert report.timing["resumed_from_ledger"] >= 1
