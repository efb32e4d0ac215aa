"""The fleet runner: fan a grid of shards across supervised workers.

Backends live behind the executor seam (:mod:`repro.fleet.executors`):

- ``serial`` — run every shard in this process, in key order.  The
  debugging backend: breakpoints work, tracebacks are local, and the
  per-process training cache degenerates to "train each configuration
  once", exactly like the pre-fleet serial experiments.
- ``process`` — a :class:`concurrent.futures.ProcessPoolExecutor`.
  Workers inherit the registered scenario runners (the pool forks after
  imports) and, with an ``artifact_store``, *load* pre-trained models
  instead of re-training them.
- anything registered via
  :func:`repro.fleet.executors.register_executor` — a distributed
  executor drops in without touching this module.

Three mechanisms make parallelism actually pay:

1. **Shared training artifacts** — with ``artifact_store=...`` each
   unique training configuration is trained exactly once (a pre-warm
   pass in the parent, before fan-out) and serialized to a
   content-addressed store; workers load, never train.  Without it the
   per-worker training caches are cold and every worker re-trains.
2. **Chunked scheduling** — pending shards are submitted in key-ordered
   chunks so pool/pickle overhead is paid per chunk, not per shard.
3. **In-order commit** — chunk results are buffered and committed in
   chunk-index (= spec-key) order, so ledger line order, ``progress``
   callback order, and the failure report are all byte-stable run to
   run, whatever the completion timing.

And one mechanism makes the fan-out *dependable* — the *supervisor
loop*, which applies the repo's own proactive-fault-management doctrine
to the fleet layer.  Every failure at the executor seam is classified
(:mod:`repro.fleet.failures`):

- **spec-deterministic** — the shard raised.  Checkpointed as a
  ``status: "failed"`` ledger line (resume skips it instead of
  re-running a known failure forever), and every such failure is
  reported together in one :class:`~repro.errors.FleetExecutionError`.
- **infrastructure** — a worker died, the pool broke, an artifact read
  tore.  The supervisor rebuilds the executor if the pool is broken,
  resubmits the lost shards one at a time under a bounded
  :class:`~repro.resilience.RetryPolicy` (attempt *counting* only —
  retries are immediate, so no wall-clock backoff can leak into
  results), and **quarantines** a shard whose retry budget runs out:
  recorded in the ledger, listed in ``FleetReport.quarantined``, never
  silently dropped and never allowed to abort the rest of the grid.

Because every shard is self-contained and the aggregator orders results
by spec key, all backends — and any number of worker crashes absorbed by
retries — produce byte-identical aggregates: the executor and the chaos
only change wall-clock time, never results.  With a ``ledger_path``,
completed shards are checkpointed as they commit and a re-run executes
only the shards the ledger is missing.
"""

from __future__ import annotations

import math
import os
import time
import warnings

from repro.errors import (
    ConfigurationError,
    FleetConfigWarning,
    FleetExecutionError,
)
from repro.faults.chaos import ChaosConfig, active_chaos, clear_chaos, install_chaos
from repro.fleet.aggregate import FleetReport
from repro.fleet.artifacts import (
    ArtifactStore,
    active_artifact_store,
    configure_artifact_store,
    prewarm_training,
    worker_store_initializer,
)
from repro.fleet.executors import create_executor, executor_names
from repro.fleet.failures import (
    DETERMINISTIC,
    INFRASTRUCTURE,
    classify_failure,
    error_text,
    is_pool_fatal,
)
from repro.fleet.ledger import STATUS_FAILED, STATUS_QUARANTINED, ShardLedger
from repro.fleet.shards import execute_spec
from repro.fleet.spec import RunResult, RunSpec
from repro.resilience.policies import RetryPolicy
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import (
    FLEET_CHAOS_ARMED,
    FLEET_QUARANTINE,
    FLEET_RETRY,
    FLEET_RUN_END,
    FLEET_RUN_START,
    FLEET_SHARD_FAILED,
    FLEET_WORKER_RESTART,
    SupervisorRecorder,
    TraceContext,
    clear_trace,
    derive_trace_id,
    export_chrome_trace,
    install_trace,
    merge_fleet_trace,
)

#: The built-in backends (dynamic registrations extend executor_names()).
BACKENDS = ("serial", "process")

#: Scheduling waves per worker: chunks are sized so each worker sees
#: about this many chunks, balancing pickle amortization (bigger chunks)
#: against tail latency when shard costs vary (smaller chunks).
CHUNK_WAVES = 2

#: Default retry budget for infrastructure failures: one try plus two
#: resubmissions per shard before quarantine.  Only ``max_attempts`` is
#: used — fleet retries are immediate (deterministic attempt counting,
#: no wall-clock backoff anywhere near the results).
DEFAULT_RETRY = RetryPolicy(max_attempts=3)


def default_workers() -> int:
    """Worker count when unspecified: all cores, capped at 8."""
    return max(1, min(8, os.cpu_count() or 1))


def default_chunk_size(n_pending: int, workers: int) -> int:
    """Shards per submitted chunk: ``workers * CHUNK_WAVES`` chunks total.

    One worker (the serial backend) gets chunks of 1 so progress and
    ledger writes stream shard by shard with nothing to amortize.
    """
    if workers <= 1:
        return 1
    return max(1, math.ceil(n_pending / (workers * CHUNK_WAVES)))


def _worker_initializer(
    store_root, chaos_config, parent_pid, trace_context=None
) -> None:
    """Per-worker setup: arm artifact store, chaos harness, fleet tracing.

    Module-level (hence picklable) so spawn-based pools can ship it.  On
    the serial backend it runs in the parent itself, which is why the
    chaos injector needs ``parent_pid``: a "worker crash" there must be
    simulated (raised), not executed (``os._exit``).  The trace context
    propagates the same way the chaos config does — installed
    process-globally, read back by :func:`~repro.fleet.shards.
    execute_spec` (sidecar capture) and the chaos injector (fault
    records).
    """
    if store_root is not None:
        worker_store_initializer(store_root)
    if chaos_config is not None:
        install_chaos(chaos_config, parent_pid)
    if trace_context is not None:
        install_trace(trace_context)


def _execute_chunk(specs: list[RunSpec], attempts: dict | None = None) -> list[tuple]:
    """Run one chunk of shards in this worker, capturing per-spec failures.

    Returns one entry per spec, in order: ``("ok", result)`` or
    ``("err", spec_key, exception, kind)`` with the failure classified at
    the point of capture.  Execution continues past a failed spec so the
    rest of the chunk is still checkpointable.  ``attempts`` (spec key ->
    attempt number, 1-based) feeds the chaos harness, whose fault
    decisions are keyed by attempt so retried shards get fresh draws.
    """
    outcomes: list[tuple] = []
    chaos = active_chaos()
    for spec in specs:
        key = spec.key()
        attempt = (attempts or {}).get(key, 1)
        try:
            if chaos is not None:
                chaos.before_spec(key, attempt)
            outcomes.append(("ok", execute_spec(spec, attempt=attempt)))
        except Exception as exc:
            outcomes.append(("err", key, exc, classify_failure(exc)))
    return outcomes


def run_fleet(
    specs: list[RunSpec],
    backend: str = "process",
    workers: int | None = None,
    ledger_path: str | None = None,
    progress=None,
    artifact_store: ArtifactStore | str | None = None,
    chunk_size: int | None = None,
    retry: RetryPolicy | None = None,
    retry_failed: bool = False,
    chaos: ChaosConfig | None = None,
    trace_dir: str | None = None,
    trace_deterministic: bool = False,
) -> FleetReport:
    """Run every shard of ``specs`` and aggregate the results.

    Parameters
    ----------
    specs:
        The grid (see :func:`repro.fleet.grid`).  Keys must be unique —
        a duplicate spec would silently double-weight a distribution.
    backend:
        ``"process"`` (default), ``"serial"``, or any backend registered
        with :func:`repro.fleet.executors.register_executor`.
    workers:
        Process-pool size.  The serial backend runs exactly one worker:
        passing ``workers > 1`` with ``backend="serial"`` raises a
        :class:`~repro.errors.FleetConfigWarning` instead of silently
        ignoring the value.
    ledger_path:
        JSONL checkpoint file.  Existing completed shards are loaded and
        skipped; newly completed shards are appended in spec-key order.
        Failed and quarantined shards are checkpointed too (``status``
        lines) and skipped on resume unless ``retry_failed`` is set.
    progress:
        Optional callable ``progress(done, total, result)`` invoked as
        each shard commits (the CLI prints a line per shard through
        this).  Commit order is spec-key order, deterministically.
    artifact_store:
        Root directory (or :class:`~repro.fleet.artifacts.ArtifactStore`)
        for shared trained-model artifacts.  Enables the pre-warm pass
        and worker-side artifact loading; omit to keep the historical
        train-per-process behavior.
    chunk_size:
        Shards per submitted chunk; default
        :func:`default_chunk_size` (``workers * CHUNK_WAVES`` chunks).
    retry:
        Retry budget for *infrastructure* failures (worker death, broken
        pool, torn reads); default :data:`DEFAULT_RETRY` (3 attempts per
        shard).  Only ``max_attempts`` is consulted — fleet retries are
        immediate, so results carry no wall-clock backoff.  A shard that
        exhausts the budget is quarantined.  ``RetryPolicy(max_attempts=1)``
        disables retries.
    retry_failed:
        Re-execute shards the ledger recorded as failed or quarantined
        instead of skipping them on resume.
    chaos:
        Arm the fleet chaos harness (:mod:`repro.faults.chaos`) in every
        worker: seeded worker-crash / slow-worker / torn-artifact fault
        injection, used by the tests to prove the supervisor absorbs
        infrastructure faults without perturbing aggregates.
    trace_dir:
        Arm fleet-wide distributed tracing: every worker serializes each
        shard's full telemetry span/event stream to a per-shard JSONL
        sidecar under ``trace_dir/shards/``, the supervisor loop records
        its recovery work (restarts, retries, quarantines, chaos arming)
        to ``supervisor.jsonl``, chaos injections drop records under
        ``chaos/``, and after the run everything is merged into a
        deterministic ``fleet_trace.jsonl`` timeline plus a
        Chrome/Perfetto ``fleet_trace.chrome.json`` render (see
        :mod:`repro.telemetry.tracing`).  Tracing reads results, never
        feeds back: aggregates are byte-identical with it on or off
        (``tests/fleet/test_determinism_contract.py``).
    trace_deterministic:
        Zero wall-clock fields in the trace sidecars so trace bytes are
        a pure function of simulated behaviour (golden comparisons);
        default keeps wall timings for profiling.

    Raises
    ------
    FleetExecutionError
        When any shard failed deterministically — after every completed
        shard has been committed and checkpointed.  The error carries
        *all* failures (this run's and, on resume, the ledger's skipped
        ones), sorted by spec key.
    """
    if backend not in executor_names():
        raise ConfigurationError(
            f"unknown backend {backend!r}; use one of {executor_names()}"
        )
    if not specs:
        raise ConfigurationError("need at least one RunSpec")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    if backend == "serial" and workers not in (None, 1):
        warnings.warn(
            FleetConfigWarning(
                f"backend='serial' runs in-process; workers={workers} is "
                "ignored (use backend='process' to parallelize)"
            ),
            stacklevel=2,
        )
    retry_policy = retry if retry is not None else DEFAULT_RETRY
    keyed: dict[str, RunSpec] = {}
    for spec in specs:
        key = spec.key()
        if key in keyed:
            raise ConfigurationError(f"duplicate shard in grid: {key}")
        keyed[key] = spec

    ledger = ShardLedger(ledger_path) if ledger_path else None
    results: dict[str, RunResult] = {}
    #: Failure checkpoints replayed from the ledger and *not* re-run.
    skipped: dict[str, dict] = {}
    resumed = 0
    if ledger is not None:
        state = ledger.load_entries()
        for key, result in state.results.items():
            if key in keyed:
                results[key] = result
        resumed = len(results)
        if not retry_failed:
            for key, status in state.statuses.items():
                if key in keyed and key not in results:
                    skipped[key] = status

    # Key order everywhere: submission, commit, ledger lines, progress.
    pending = [
        keyed[key]
        for key in sorted(keyed)
        if key not in results and key not in skipped
    ]
    total = len(keyed)
    done = len(results)
    pool_workers = 1 if backend == "serial" else (workers or default_workers())
    size = (
        chunk_size
        if chunk_size is not None
        else default_chunk_size(len(pending), pool_workers)
    )
    chunks = [pending[i : i + size] for i in range(0, len(pending), size)]
    chunk_keys = [[spec.key() for spec in chunk] for chunk in chunks]
    wall_start = time.perf_counter()

    store = artifact_store
    if isinstance(store, str):
        store = ArtifactStore(store)
    previous_store = active_artifact_store()
    prewarm_stats: dict | None = None

    trace_context: TraceContext | None = None
    recorder: SupervisorRecorder | None = None
    trace_summary: dict | None = None
    if trace_dir is not None:
        trace_context = TraceContext(
            trace_id=derive_trace_id(sorted(keyed)),
            root=str(trace_dir),
            deterministic=trace_deterministic,
        )
        recorder = SupervisorRecorder(trace_context)
        recorder.event(
            FLEET_RUN_START,
            trace_id=trace_context.trace_id,
            backend=backend,
            shards=total,
            resumed=resumed,
        )
        if chaos is not None:
            recorder.event(
                FLEET_CHAOS_ARMED,
                seed=chaos.seed,
                crash_probability=chaos.crash_probability,
                slow_probability=chaos.slow_probability,
                torn_artifact_probability=chaos.torn_artifact_probability,
            )

    fleet_metrics = MetricsRegistry()
    recovery = {
        "retries": 0,
        "worker_restarts": 0,
        "quarantined": 0,
        "deterministic_failures": 0,
        "infrastructure_failures": 0,
    }

    def _record(result: RunResult) -> None:
        nonlocal done
        key = result.spec.key()
        results[key] = result
        if ledger is not None:
            ledger.append(result)
        done += 1
        if recorder is not None:
            # Commit order is spec-key order, so this lane is stable.
            recorder.shard_committed(
                key,
                attempts=attempts.get(key, 1),
                telemetry_events=result.telemetry_events,
            )
        if progress is not None:
            progress(done, total, result)

    #: ``(spec_key, exception)`` deterministic failures, in commit order.
    failures: list[tuple[str, BaseException]] = []
    #: Quarantine records (never silently dropped): committed shards
    #: whose infrastructure retry budget ran out.
    quarantined: list[dict] = []
    #: Submission counts per spec key (1 = first try).
    attempts: dict[str, int] = {}
    #: chunk idx -> spec key -> ("ok", result) | ("failed", exc) |
    #: ("quarantined", exc).  A chunk commits when every key resolved.
    resolved: dict[int, dict[str, tuple]] = {i: {} for i in range(len(chunks))}

    def _commit_chunk(idx: int) -> None:
        """Checkpoint one chunk's resolved entries, in spec order."""
        for key in chunk_keys[idx]:
            entry = resolved[idx].get(key)
            if entry is None:
                continue  # abandoned mid-flight (abort path)
            tag = entry[0]
            if tag == "ok":
                _record(entry[1])
            elif tag == "failed":
                failures.append((key, entry[1]))
                if recorder is not None:
                    recorder.event(
                        FLEET_SHARD_FAILED,
                        key=key,
                        error=error_text(entry[1]),
                        attempts=attempts.get(key, 1),
                    )
                if ledger is not None:
                    ledger.append_status(
                        key,
                        STATUS_FAILED,
                        kind=DETERMINISTIC,
                        error=error_text(entry[1]),
                        attempts=attempts.get(key, 1),
                    )
            else:
                quarantined.append(
                    {
                        "key": key,
                        "error": error_text(entry[1]),
                        "attempts": attempts.get(key, 1),
                        "source": "run",
                    }
                )
                if recorder is not None:
                    recorder.event(
                        FLEET_QUARANTINE,
                        key=key,
                        error=error_text(entry[1]),
                        attempts=attempts.get(key, 1),
                    )
                if ledger is not None:
                    ledger.append_status(
                        key,
                        STATUS_QUARANTINED,
                        kind=INFRASTRUCTURE,
                        error=error_text(entry[1]),
                        attempts=attempts.get(key, 1),
                    )

    def _supervise() -> None:
        """The supervisor loop: submit, classify, retry, quarantine.

        Rebuilds the executor whenever a pool-fatal failure poisons it
        (each rebuild is one ``worker_restarts``), resubmits
        infrastructure-failed shards one spec at a time so a poison
        shard is isolated from its chunk-mates, and stops scheduling on
        the first deterministic failure (in-flight work still commits).
        Commits happen inside the loop, in chunk-index order, so the
        ledger streams deterministically however the faults land.
        """
        pending_units: list[tuple[int, list[RunSpec]]] = [
            (idx, chunk) for idx, chunk in enumerate(chunks)
        ]
        next_commit = 0
        aborted = False
        first_executor = True
        initializer = (
            _worker_initializer
            if (store is not None or chaos is not None or trace_context is not None)
            else None
        )
        initargs = (
            (
                store.root if store is not None else None,
                chaos,
                os.getpid(),
                trace_context,
            )
            if initializer is not None
            else ()
        )

        while pending_units and not aborted:
            if not first_executor:
                recovery["worker_restarts"] += 1
                fleet_metrics.counter("fleet_worker_restarts_total").inc()
                if recorder is not None:
                    recorder.event(
                        FLEET_WORKER_RESTART,
                        restart=recovery["worker_restarts"],
                        pending_units=len(pending_units),
                    )
            first_executor = False
            broken = False
            with create_executor(
                backend, pool_workers, initializer=initializer, initargs=initargs
            ) as executor:
                index_of: dict = {}

                def _submit(unit) -> None:
                    nonlocal broken
                    idx, unit_specs = unit
                    prospective = {
                        s.key(): attempts.get(s.key(), 0) + 1 for s in unit_specs
                    }
                    try:
                        future = executor.submit(
                            _execute_chunk, list(unit_specs), prospective
                        )
                    except Exception:
                        # Pool already broken/shut down: park the unit for
                        # the rebuilt executor, without charging an attempt.
                        broken = True
                        pending_units.append(unit)
                        return
                    attempts.update(prospective)
                    index_of[future] = unit

                def _requeue(idx: int, spec: RunSpec, exc: BaseException) -> None:
                    """Retry one infrastructure-failed spec, or quarantine."""
                    key = spec.key()
                    recovery["infrastructure_failures"] += 1
                    fleet_metrics.counter(
                        "fleet_shard_failures_total", kind=INFRASTRUCTURE
                    ).inc()
                    if aborted:
                        return  # abandoned, like a cancelled future
                    if attempts.get(key, 1) >= retry_policy.max_attempts:
                        resolved[idx][key] = ("quarantined", exc)
                        recovery["quarantined"] += 1
                        fleet_metrics.counter("fleet_quarantined_total").inc()
                        return
                    recovery["retries"] += 1
                    fleet_metrics.counter("fleet_retries_total").inc()
                    if recorder is not None:
                        recorder.event(
                            FLEET_RETRY,
                            key=key,
                            attempt=attempts.get(key, 1) + 1,
                            error=error_text(exc),
                        )
                    unit = (idx, [spec])
                    if broken:
                        pending_units.append(unit)
                    else:
                        _submit(unit)

                units, pending_units[:] = list(pending_units), []
                for unit in units:
                    _submit(unit)

                for future in executor.as_completed():
                    if future.cancelled():
                        continue
                    idx, unit_specs = index_of[future]
                    exc = future.exception()
                    newly_failed = False
                    if exc is not None:
                        if is_pool_fatal(exc):
                            broken = True
                        kind = classify_failure(exc)
                        if kind == INFRASTRUCTURE:
                            for spec in unit_specs:
                                if spec.key() not in resolved[idx]:
                                    _requeue(idx, spec, exc)
                        elif len(unit_specs) == 1:
                            resolved[idx][unit_specs[0].key()] = ("failed", exc)
                            newly_failed = True
                        else:
                            # Deterministic chunk-level error (e.g. an
                            # unpicklable result): isolate the culprit by
                            # re-running the chunk one spec at a time.
                            for spec in unit_specs:
                                if spec.key() not in resolved[idx]:
                                    _submit((idx, [spec]))
                    else:
                        for entry in future.result():
                            if entry[0] == "ok":
                                result = entry[1]
                                resolved[idx][result.spec.key()] = ("ok", result)
                            else:
                                _, key, err, kind = entry
                                if kind == INFRASTRUCTURE:
                                    _requeue(idx, keyed[key], err)
                                else:
                                    resolved[idx][key] = ("failed", err)
                                    newly_failed = True
                    if newly_failed:
                        recovery["deterministic_failures"] += 1
                        fleet_metrics.counter(
                            "fleet_shard_failures_total", kind=DETERMINISTIC
                        ).inc()
                        if not aborted:
                            # Stop scheduling; running chunks finish
                            # (shutdown waits) so they still checkpoint.
                            aborted = True
                            pending_units.clear()
                            executor.shutdown(cancel_futures=True)
                    # Commit the contiguous complete-chunk prefix:
                    # streaming checkpoints in deterministic key order.
                    while next_commit < len(chunks) and len(
                        resolved[next_commit]
                    ) == len(chunk_keys[next_commit]):
                        _commit_chunk(next_commit)
                        next_commit += 1

        # Chunks stranded behind the gap an aborted, quarantined or
        # abandoned chunk left still checkpoint, in order.
        for idx in range(next_commit, len(chunks)):
            _commit_chunk(idx)

    try:
        configure_artifact_store(store)
        if store is not None and pending:
            prewarm_stats = prewarm_training(pending, store)
        if pending:
            _supervise()
        _raise_failures(failures, skipped, quarantined)
    finally:
        configure_artifact_store(previous_store)
        if chaos is not None:
            clear_chaos()  # the serial backend armed it in this process
        if trace_context is not None:
            clear_trace()  # likewise for the trace context
            if recorder is not None:
                recorder.event(FLEET_RUN_END, **recovery)
                recorder.finalize()
            # Finalized in the finally block so a failed run still
            # leaves a merged, renderable trace behind for post-mortems.
            trace_summary = merge_fleet_trace(trace_context)
            export_chrome_trace(trace_context)
            trace_summary["chrome_path"] = trace_context.chrome_path

    wall_seconds = time.perf_counter() - wall_start
    ordered = [results[key] for key in sorted(results)]
    return FleetReport(
        results=ordered,
        timing={
            "backend": backend,
            "workers": pool_workers,
            "shards": total,
            "resumed_from_ledger": resumed,
            "skipped_failed": len(skipped),
            "executed": total - resumed - len(skipped),
            "chunks": len(chunks),
            "chunk_size": size,
            "artifact_store": store.root if store is not None else None,
            "prewarm": prewarm_stats,
            "recovery": recovery,
            "trace": trace_summary,
            "wall_seconds": wall_seconds,
            "shard_wall_seconds": {
                r.spec.key(): r.wall_seconds for r in ordered
            },
        },
        quarantined=sorted(quarantined, key=lambda q: q["key"]),
        fleet_metrics=fleet_metrics,
    )


def _raise_failures(
    failures: list[tuple[str, BaseException]],
    skipped: dict[str, dict],
    quarantined: list[dict],
) -> None:
    """Raise one aggregate error naming *every* deterministic failure.

    Ledger-skipped failures count too (a resumed grid with known-failed
    shards did not succeed just because nothing new broke); skipped
    *quarantined* shards instead rejoin the quarantine report, since
    their infrastructure may have healed on another day or host.
    """
    records: list[dict] = []
    causes: list[BaseException] = []
    for key, exc in failures:
        records.append({"key": key, "error": error_text(exc), "source": "run"})
        causes.append(exc)
    for key, status in skipped.items():
        if status.get("status") == STATUS_FAILED:
            records.append(
                {
                    "key": key,
                    "error": status.get("error") or "unknown error",
                    "source": "ledger",
                }
            )
        else:
            quarantined.append(
                {
                    "key": key,
                    "error": status.get("error"),
                    "attempts": status.get("attempts"),
                    "source": "ledger",
                }
            )
    if not records:
        return
    records.sort(key=lambda record: record["key"])
    parts = [
        f"{record['key']} ({record['error']})"
        + (" [from ledger]" if record["source"] == "ledger" else "")
        for record in records
    ]
    message = (
        f"{len(records)} shard(s) failed deterministically: " + "; ".join(parts)
    )
    if any(record["source"] == "ledger" for record in records):
        message += " — pass retry_failed=True to re-run ledger-recorded failures"
    raise FleetExecutionError(message, failures=records, causes=causes) from (
        causes[0] if causes else None
    )
