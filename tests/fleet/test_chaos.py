"""Supervisor loop under chaos: crash recovery, retries, quarantine.

The scenario runner here is module-level and registered at import time
so forked pool workers inherit it (same mechanism as the campaign
runners).  The chaos seeds are *searched for* at test time over the pure
decision functions — hashing is cheap — so each test states the fault
pattern it needs instead of hard-coding a magic seed that would silently
stop provoking anything if the key derivation ever changed.  Recovery of
real shards on a real pool, byte for byte against a clean serial run, is
checked by ``test_determinism_contract.py``.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import WorkerCrashError
from repro.faults.chaos import ChaosConfig, active_chaos, crash_decision
from repro.fleet import RunResult, RunSpec, grid, run_fleet
from repro.fleet.failures import INFRASTRUCTURE
from repro.fleet.ledger import ShardLedger
from repro.fleet.shards import register_scenario_runner
from repro.resilience import RetryPolicy

CHAOS_FAKE = "chaos-fake"


def _fake_runner(spec: RunSpec) -> RunResult:
    return RunResult(
        spec=spec,
        availability=0.9 + (spec.seed % 10) / 100.0,
        failures=spec.seed % 3,
        wall_seconds=0.001 * spec.seed,
    )


register_scenario_runner(CHAOS_FAKE, _fake_runner, overwrite=True)


class TestCrashRecovery:
    @settings(max_examples=50, deadline=None)
    @given(
        seeds=st.sets(st.integers(1, 40), min_size=1, max_size=6),
        chunk_size=st.integers(1, 6),
        chaos_seed=st.integers(0, 100_000),
    )
    def test_serial_backend_simulates_the_crash_and_retries(
        self, seeds, chunk_size, chaos_seed
    ):
        """In-process a worker crash is raised, not executed: each shard
        retries until its first clean draw, or is quarantined once the
        budget runs out, and the survivors match a clean run."""
        max_attempts = 3
        specs = grid([CHAOS_FAKE], seeds=sorted(seeds))
        config = ChaosConfig(seed=chaos_seed, crash_probability=0.3)
        first_clean = {
            spec.key(): next(
                (
                    attempt
                    for attempt in range(1, max_attempts + 1)
                    if not crash_decision(config, spec.key(), attempt)
                ),
                None,
            )
            for spec in specs
        }
        survivors = [spec for spec in specs if first_clean[spec.key()]]
        chaotic = run_fleet(
            specs,
            backend="serial",
            chunk_size=chunk_size,
            chaos=config,
            retry=RetryPolicy(max_attempts=max_attempts),
        )

        assert {q["key"] for q in chaotic.quarantined} == {
            key for key, attempt in first_clean.items() if attempt is None
        }
        crashes = sum(
            (attempt or max_attempts + 1) - 1 for attempt in first_clean.values()
        )
        recovery = chaotic.timing["recovery"]
        assert recovery["infrastructure_failures"] == crashes
        assert recovery["retries"] == crashes - len(chaotic.quarantined)
        # No pool to break in-process: recovery without a restart.
        assert recovery["worker_restarts"] == 0
        assert active_chaos() is None
        if survivors:
            clean = run_fleet(survivors, backend="serial")
            assert [r.to_json_dict() for r in chaotic.results] == [
                r.to_json_dict() for r in clean.results
            ]

    def test_torn_artifact_reads_are_retried(self):
        specs = grid([CHAOS_FAKE], seeds=range(1, 5))
        keys = [spec.key() for spec in specs]
        # Same search, torn channel: >=1 tear on attempt 1, clean retries.
        for seed in range(5000):
            config = ChaosConfig(seed=seed, torn_artifact_probability=0.25)
            from repro.faults.chaos import torn_decision

            if any(torn_decision(config, key, 1) for key in keys) and all(
                not torn_decision(config, key, attempt)
                for key in keys
                for attempt in (2, 3)
            ):
                break
        else:
            pytest.fail("no chaos seed with a transient torn read found")
        clean = run_fleet(specs, backend="serial")
        chaotic = run_fleet(
            specs, backend="serial", chaos=config, retry=RetryPolicy(max_attempts=3)
        )
        assert chaotic.aggregate_json() == clean.aggregate_json()
        assert chaotic.timing["recovery"]["retries"] >= 1


class TestQuarantine:
    def test_poison_spec_is_quarantined_not_fatal_process(self, tmp_path):
        """crash_probability=1.0 makes every attempt die: the shard must
        end up quarantined — listed, checkpointed, and non-fatal."""
        specs = grid([CHAOS_FAKE], seeds=[1])
        ledger_path = str(tmp_path / "fleet.jsonl")
        report = run_fleet(
            specs,
            backend="process",
            workers=1,
            ledger_path=ledger_path,
            chaos=ChaosConfig(seed=0, crash_probability=1.0),
            retry=RetryPolicy(max_attempts=2),
        )
        assert report.results == []
        assert len(report.quarantined) == 1
        record = report.quarantined[0]
        assert record["key"] == specs[0].key()
        assert record["attempts"] == 2
        assert record["source"] == "run"
        assert report.timing["recovery"]["worker_restarts"] >= 1
        assert report.aggregate()["quarantined"] == [specs[0].key()]
        assert specs[0].key() in report.summary()
        status = ShardLedger(ledger_path).load_entries().statuses[specs[0].key()]
        assert status["status"] == "quarantined"
        assert status["kind"] == INFRASTRUCTURE

    def test_poison_spec_does_not_abort_its_grid_mates(self):
        specs = grid([CHAOS_FAKE], seeds=range(1, 5))
        poison_key = specs[0].key()
        # Poison exactly one shard: every other (key, attempt) draw is
        # clean because only the poisoned key ever crashes at p=1.0 ...
        # which per-key probabilities cannot express, so use the
        # attribute override seam instead: a config that only the
        # poisoned key's draws can trip is found by search.
        for seed in range(20000):
            config = ChaosConfig(seed=seed, crash_probability=0.12)
            if all(
                crash_decision(config, poison_key, attempt)
                for attempt in (1, 2)
            ) and all(
                not crash_decision(config, key, attempt)
                for key in [spec.key() for spec in specs[1:]]
                for attempt in (1, 2, 3, 4)
            ):
                break
        else:
            pytest.skip("no seed poisons exactly the first shard")
        report = run_fleet(
            specs,
            backend="serial",
            chaos=config,
            retry=RetryPolicy(max_attempts=2),
        )
        assert [record["key"] for record in report.quarantined] == [poison_key]
        surviving = {result.spec.key() for result in report.results}
        assert surviving == {spec.key() for spec in specs[1:]}

    def test_quarantined_status_skipped_on_resume(self, tmp_path):
        specs = grid([CHAOS_FAKE], seeds=[1, 2])
        ledger_path = str(tmp_path / "fleet.jsonl")
        ledger = ShardLedger(ledger_path)
        ledger.append_status(
            specs[0].key(),
            "quarantined",
            kind=INFRASTRUCTURE,
            error="WorkerCrashError: kept dying",
            attempts=3,
        )
        report = run_fleet(specs, backend="serial", ledger_path=ledger_path)
        # Shard 2 ran; shard 1 is re-reported from the ledger, not re-run.
        assert [result.spec.seed for result in report.results] == [2]
        assert report.quarantined[0]["source"] == "ledger"
        assert report.quarantined[0]["key"] == specs[0].key()

    def test_retry_failed_reruns_quarantined_shards(self, tmp_path):
        specs = grid([CHAOS_FAKE], seeds=[1])
        ledger_path = str(tmp_path / "fleet.jsonl")
        ShardLedger(ledger_path).append_status(
            specs[0].key(),
            "quarantined",
            kind=INFRASTRUCTURE,
            error="WorkerCrashError: kept dying",
            attempts=3,
        )
        report = run_fleet(
            specs, backend="serial", ledger_path=ledger_path, retry_failed=True
        )
        assert [result.spec.seed for result in report.results] == [1]
        assert report.quarantined == []
        # The success overwrites the quarantine record (last line wins).
        assert ShardLedger(ledger_path).load_entries().statuses == {}


class TestLedgerResilience:
    def test_resume_across_torn_final_status_line(self, tmp_path):
        """A hard kill mid-status-write must not poison resume: the torn
        final line is skipped and the shard simply re-runs."""
        specs = grid([CHAOS_FAKE], seeds=[1, 2, 3])
        ledger_path = str(tmp_path / "fleet.jsonl")
        run_fleet(specs[:2], backend="serial", ledger_path=ledger_path)
        with open(ledger_path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(
                    {"version": 1, "key": specs[2].key(), "status": "failed"}
                )[: 30]
            )  # no newline, truncated mid-document: a torn write
        report = run_fleet(specs, backend="serial", ledger_path=ledger_path)
        assert len(report.results) == 3
        assert report.timing["resumed_from_ledger"] == 2
        assert report.timing["executed"] == 1


class TestWorkerCrashInParent:
    def test_simulated_crash_error_is_infrastructure(self):
        from repro.fleet.failures import classify_failure

        assert classify_failure(WorkerCrashError("x")) == INFRASTRUCTURE

    def test_chaos_initializer_never_exits_parent(self):
        # Paranoia for the serial path: run_fleet with certain chaos in
        # this very process must raise/retry, never os._exit the test
        # runner.  (Getting here at all after the quarantine tests above
        # already proves it, but pin the pid to make the claim explicit.)
        pid = os.getpid()
        run_fleet(
            grid([CHAOS_FAKE], seeds=[4]),
            backend="serial",
            chaos=ChaosConfig(seed=0, crash_probability=1.0),
            retry=RetryPolicy(max_attempts=1),
        )
        assert os.getpid() == pid
