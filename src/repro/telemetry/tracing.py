"""Fleet-wide distributed tracing: context propagation, sidecars, merge.

PR 3 made one *process* translucent (:class:`~repro.telemetry.hub.
TelemetryHub`); this module makes the *fleet* translucent.  A fleet run
owns one **trace directory** and one **trace id**, and every party writes
its own lane into that directory:

- each worker serializes the full span/event stream of every shard it
  executes to a per-shard JSONL **sidecar** (``shards/<key>.jsonl``,
  published with :func:`repro.atomicfile.write_atomic`, like the
  artifact store — a worker hard-killed mid-write leaves only a temp
  file behind, and the retried attempt publishes a complete sidecar);
- the supervisor loop records its recovery work (worker restarts,
  retries, quarantines, chaos arming) as first-class events in a
  ``supervisor.jsonl`` lane, clocked by a deterministic logical step
  counter (the supervisor has no simulated clock);
- the chaos harness drops one tiny record per injected fault into
  ``chaos/`` *before* the fault fires, so even a worker that dies by
  ``os._exit`` leaves its injection visible on the timeline.

:func:`merge_fleet_trace` folds every lane into one deterministic
``fleet_trace.jsonl`` ordered by ``(sim_time, lane key, seq)``, and
:func:`export_chrome_trace` renders the merged timeline as a
Chrome/Perfetto trace-event JSON with one "process" lane per shard plus
one for the supervisor.

**Context propagation** is by value, not by ambient magic: the runner
derives the fleet ``trace_id`` from the sorted spec keys (no wall clock,
no randomness), each shard's parent span id is hash-derived from
``(trace_id, spec key)`` by :func:`derive_span_id` — computed
identically parent-side (supervisor commit events) and worker-side
(sidecar headers), so the two lanes link up without shipping ids across
the pool — and the whole :class:`TraceContext` rides the worker
initializer exactly like the chaos config does.

The non-negotiable, extended from PR 3's observation-must-not-perturb
invariant: tracing enabled vs disabled leaves fleet aggregates
byte-identical (``tests/fleet/test_determinism_contract.py`` checks it
on the real runners).  Tracing reads results, never feeds anything back.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass

from repro.atomicfile import write_atomic
from repro.errors import ConfigurationError
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.sinks import MemorySink

#: Schema tag inside every sidecar header so future layouts can be
#: detected, not guessed (mirrors the ledger's LEDGER_VERSION).
TRACE_VERSION = 1

#: Layout inside a trace directory.
SHARDS_DIR = "shards"
CHAOS_DIR = "chaos"
SUPERVISOR_FILE = "supervisor.jsonl"
MERGED_FILE = "fleet_trace.jsonl"
CHROME_FILE = "fleet_trace.chrome.json"

#: The supervisor's lane name in merged timelines and Perfetto exports.
SUPERVISOR_LANE = "supervisor"

#: Supervisor event names (the recovery-timeline vocabulary).
FLEET_RUN_START = "fleet.run_start"
FLEET_RUN_END = "fleet.run_end"
FLEET_SHARD_COMMITTED = "fleet.shard_committed"
FLEET_SHARD_FAILED = "fleet.shard_failed"
FLEET_RETRY = "fleet.retry"
FLEET_WORKER_RESTART = "fleet.worker_restart"
FLEET_QUARANTINE = "fleet.quarantine"
FLEET_CHAOS_ARMED = "fleet.chaos_armed"

#: Chaos-injection event prefix (``chaos.crash`` / ``chaos.slow`` / ...).
CHAOS_EVENT_PREFIX = "chaos."

_UNSAFE_NAME = re.compile(r"[^A-Za-z0-9._-]")


def safe_lane_name(spec_key: str) -> str:
    """A filesystem-safe sidecar file stem for one spec key.

    Spec keys end in a content digest, so character substitution cannot
    collide two distinct keys.
    """
    return _UNSAFE_NAME.sub("_", spec_key)


def derive_trace_id(spec_keys) -> str:
    """The fleet trace id: a pure function of the sorted grid keys.

    No wall clock and no randomness — re-running the same grid yields
    the same trace id, which is what lets golden tests compare whole
    trace directories byte for byte.
    """
    digest = hashlib.sha256("\n".join(sorted(spec_keys)).encode("utf-8"))
    return f"fleet-{digest.hexdigest()[:16]}"


def derive_span_id(trace_id: str, spec_key: str) -> int:
    """The parent span id of one shard, derived from content.

    Both sides of the process boundary compute this independently — the
    supervisor when it emits the shard's commit event, the worker when
    it stamps the sidecar header — so the trace context needs no
    per-shard id plumbing to keep the lanes linked.
    """
    payload = f"span:{trace_id}:{spec_key}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "little")


@dataclass(frozen=True)
class TraceContext:
    """Everything a worker needs to write its lane of a fleet trace.

    Frozen and picklable (plain strings and a bool), so it ships through
    the pool initializer exactly like :class:`~repro.faults.chaos.
    ChaosConfig` does.  ``deterministic`` selects the byte-stable export
    mode: wall-clock fields zeroed, sim-time retained (see
    :func:`repro.telemetry.exporters.scrub_wall_fields`).
    """

    trace_id: str
    root: str
    deterministic: bool = False

    def __post_init__(self) -> None:
        if not self.trace_id:
            raise ConfigurationError("trace_id must be a non-empty string")
        if not self.root:
            raise ConfigurationError("trace root must be a non-empty path")

    @property
    def shards_dir(self) -> str:
        return os.path.join(self.root, SHARDS_DIR)

    @property
    def chaos_dir(self) -> str:
        return os.path.join(self.root, CHAOS_DIR)

    @property
    def supervisor_path(self) -> str:
        return os.path.join(self.root, SUPERVISOR_FILE)

    @property
    def merged_path(self) -> str:
        return os.path.join(self.root, MERGED_FILE)

    @property
    def chrome_path(self) -> str:
        return os.path.join(self.root, CHROME_FILE)

    def shard_trace_path(self, spec_key: str) -> str:
        return os.path.join(self.shards_dir, f"{safe_lane_name(spec_key)}.jsonl")


# ----------------------------------------------------------------------
# Per-process trace runtime (installed by the fleet worker initializer)
# ----------------------------------------------------------------------

_ACTIVE: TraceContext | None = None

#: Hubs announced by the currently-executing shard (``None`` = no shard
#: capture in progress).  Scenario runners call :func:`announce_shard_hub`
#: with whatever hub they build; :func:`repro.fleet.shards.execute_spec`
#: brackets the runner with begin/end and writes the sidecar.
_SHARD_HUBS: list[TelemetryHub] | None = None


def install_trace(context: TraceContext) -> TraceContext:
    """Arm fleet tracing in this process; returns the installed context."""
    global _ACTIVE
    _ACTIVE = context
    return context


def active_trace() -> TraceContext | None:
    """The trace context armed in this process, if any."""
    return _ACTIVE


def clear_trace() -> None:
    """Disarm fleet tracing in this process."""
    global _ACTIVE
    _ACTIVE = None


def begin_shard_capture() -> None:
    """Start collecting the hubs the next scenario runner announces."""
    global _SHARD_HUBS
    _SHARD_HUBS = []


def end_shard_capture() -> list[TelemetryHub]:
    """Stop collecting and return the announced hubs (may be empty)."""
    global _SHARD_HUBS
    hubs = _SHARD_HUBS or []
    _SHARD_HUBS = None
    return hubs


def announce_shard_hub(hub) -> None:
    """Scenario runners report the hub they built for the current shard.

    Inside a capture window this attaches the :class:`MemorySink` the
    sidecar writer reads, so a runner builds its hub without one
    (``TelemetryHub(sink=NULL_SINK, keep_spans=False)``) and keeps events
    only while a trace is being captured.  Announce before the run
    publishes anything.  A no-op outside a capture window (plain
    non-fleet runs) and for disabled hubs (``NULL_HUB``), so call sites
    need no tracing-enabled check of their own.
    """
    if _SHARD_HUBS is not None and hub is not None and getattr(hub, "enabled", False):
        hub.add_sink(MemorySink())
        _SHARD_HUBS.append(hub)


# ----------------------------------------------------------------------
# Sidecar writing (worker side)
# ----------------------------------------------------------------------


def _atomic_write_lines(path: str, lines: list[str]) -> str:
    """Publish ``lines`` at ``path`` atomically; returns the path."""
    text = "\n".join(lines) + ("\n" if lines else "")
    write_atomic(path, text.encode("utf-8"))
    return path


def _event_records(hubs, deterministic: bool) -> list[dict]:
    """Flatten hub event streams into seq-stamped JSON-ready records.

    ``seq`` is the emission index across the announced hubs, the
    tie-breaker of the merge order ``(sim_time, lane key, seq)``.  Sim
    time never decreases within a hub, so emission order is already
    time-sorted and seq preserves it exactly.
    """
    from repro.telemetry.exporters import scrub_wall_fields

    records: list[dict] = []
    for hub in hubs:
        for event in hub.events:
            doc = event.to_dict()
            if deterministic:
                doc = scrub_wall_fields(doc)
            doc["seq"] = len(records)
            records.append(doc)
    return records


def _trace_header(
    context: TraceContext,
    lane: str,
    n_events: int,
    parent_span_id: int | None,
    attempt: int,
) -> str:
    meta = {
        "trace_meta": {
            "version": TRACE_VERSION,
            "trace_id": context.trace_id,
            "lane": lane,
            "parent_span_id": parent_span_id,
            "attempt": attempt,
            "events": n_events,
            "deterministic": context.deterministic,
        }
    }
    return json.dumps(meta, sort_keys=True)


def write_shard_trace(
    context: TraceContext, spec_key: str, hubs, attempt: int = 1
) -> str:
    """Publish one shard's full span/event stream as its sidecar.

    Called in the worker after the shard completed.  A shard without an
    enabled hub (``telemetry=False`` specs) still gets a header-only
    sidecar, so the merged timeline enumerates every executed shard.
    The header carries the attempt number; the event lines do not, so a
    retried shard's event lines byte-match the first attempt's (golden
    comparisons skip the header).
    """
    records = _event_records(list(hubs), context.deterministic)
    lines = [
        _trace_header(
            context,
            spec_key,
            len(records),
            derive_span_id(context.trace_id, spec_key),
            attempt,
        )
    ]
    lines += [json.dumps(doc, sort_keys=True, default=repr) for doc in records]
    return _atomic_write_lines(context.shard_trace_path(spec_key), lines)


def record_chaos_event(
    context: TraceContext, spec_key: str, attempt: int, channel: str
) -> str:
    """Drop one injected-fault record into the trace's chaos lane.

    One tiny file per decision, written atomically *before* the fault
    fires — the only way an ``os._exit`` worker kill can remain visible
    on the merged timeline.  File names are content-derived, so a
    re-executed decision overwrites its own record instead of
    duplicating it.
    """
    doc = {
        "event": f"{CHAOS_EVENT_PREFIX}{channel}",
        "key": spec_key,
        "attempt": attempt,
    }
    path = os.path.join(
        context.chaos_dir,
        f"{safe_lane_name(spec_key)}.a{attempt}.{channel}.json",
    )
    return _atomic_write_lines(path, [json.dumps(doc, sort_keys=True)])


# ----------------------------------------------------------------------
# The supervisor lane (parent side)
# ----------------------------------------------------------------------


class SupervisorRecorder:
    """The fleet runner's own telemetry lane.

    Wraps a :class:`TelemetryHub` whose clock is a deterministic logical
    step counter — the supervisor runs in wall time, which the trace
    contract excludes, so its events are ordered by *what happened in
    which order*, never by how long anything took.
    """

    def __init__(self, context: TraceContext) -> None:
        self.context = context
        self._step = 0
        self.hub = TelemetryHub()
        self.hub.bind_clock(lambda: float(self._step))

    def event(self, name: str, **fields) -> None:
        """Record one supervisor event at the next logical step."""
        self.hub.emit(name, **fields)
        self._step += 1

    def shard_committed(self, spec_key: str, **fields) -> None:
        """One shard's result landed (in deterministic key order)."""
        self.event(
            FLEET_SHARD_COMMITTED,
            key=spec_key,
            span_id=derive_span_id(self.context.trace_id, spec_key),
            **fields,
        )

    def finalize(self) -> str:
        """Write the supervisor sidecar; returns its path."""
        records = _event_records([self.hub], self.context.deterministic)
        lines = [
            _trace_header(
                self.context, SUPERVISOR_LANE, len(records), None, 1
            )
        ]
        lines += [
            json.dumps(doc, sort_keys=True, default=repr) for doc in records
        ]
        return _atomic_write_lines(self.context.supervisor_path, lines)


# ----------------------------------------------------------------------
# Reading and merging (parent side, after the run)
# ----------------------------------------------------------------------


def read_trace_file(path: str) -> tuple[dict, list[dict]]:
    """One sidecar back as ``(header meta, event records)``.

    Like the shard ledger's reader, it skips torn or unparseable lines,
    so a sidecar cut short by a crash still reads as its intact lines.
    """
    meta: dict = {}
    records: list[dict] = []
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if not isinstance(doc, dict):
                continue
            if "trace_meta" in doc:
                meta = doc["trace_meta"]
            else:
                records.append(doc)
    return meta, records


def _lane_files(root: str) -> list[str]:
    """The shard sidecars under ``root``, sorted (tmp leftovers ignored)."""
    shards_dir = os.path.join(root, SHARDS_DIR)
    if not os.path.isdir(shards_dir):
        return []
    return [
        os.path.join(shards_dir, name)
        for name in sorted(os.listdir(shards_dir))
        if name.endswith(".jsonl")
    ]


def _chaos_records(root: str) -> list[dict]:
    """The chaos lane: one record per injected-fault file, sorted."""
    chaos_dir = os.path.join(root, CHAOS_DIR)
    if not os.path.isdir(chaos_dir):
        return []
    records: list[dict] = []
    for name in sorted(os.listdir(chaos_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(chaos_dir, name), "r", encoding="utf-8") as handle:
            records.append(json.loads(handle.read()))
    return records


#: Chaos records slot into the supervisor lane after its own events.
_CHAOS_SEQ_BASE = 1_000_000


def merge_fleet_trace(context: TraceContext | str) -> dict:
    """Fold every lane into one deterministic fleet timeline.

    Reads the shard sidecars, the supervisor sidecar and the chaos
    records under the trace directory and writes ``fleet_trace.jsonl``:
    one record per line, each stamped with its ``lane``, ordered by
    ``(sim_time, lane key, seq)`` with the supervisor lane sorting
    first.  The order is a pure function of the lane contents, so two
    runs that produced the same sidecars produce the same merged file.

    Returns a summary dict (``path``, ``events``, ``shards``,
    ``supervisor_events``, ``chaos_events``, ``trace_id``).
    """
    root = context.root if isinstance(context, TraceContext) else str(context)
    merged: list[tuple[float, str, int, dict]] = []

    shard_lanes = 0
    for path in _lane_files(root):
        meta, records = read_trace_file(path)
        lane = meta.get("lane") or os.path.splitext(os.path.basename(path))[0]
        shard_lanes += 1
        for doc in records:
            doc = dict(doc)
            doc["lane"] = lane
            merged.append((float(doc.get("t", 0.0)), lane, int(doc["seq"]), doc))

    supervisor_events = 0
    trace_id = context.trace_id if isinstance(context, TraceContext) else None
    supervisor_path = os.path.join(root, SUPERVISOR_FILE)
    if os.path.exists(supervisor_path):
        meta, records = read_trace_file(supervisor_path)
        trace_id = meta.get("trace_id", trace_id)
        supervisor_events = len(records)
        for doc in records:
            doc = dict(doc)
            doc["lane"] = SUPERVISOR_LANE
            # The supervisor lane sorts before every shard lane ("" <
            # any spec key), keeping recovery context ahead of the work
            # it recovered at equal timestamps.
            merged.append((float(doc.get("t", 0.0)), "", int(doc["seq"]), doc))

    chaos = _chaos_records(root)
    for index, doc in enumerate(chaos):
        doc = dict(doc)
        doc.setdefault("t", 0.0)
        doc["seq"] = _CHAOS_SEQ_BASE + index
        doc["lane"] = SUPERVISOR_LANE
        merged.append((float(doc["t"]), "", int(doc["seq"]), doc))

    merged.sort(key=lambda item: (item[0], item[1], item[2]))
    lines = [json.dumps(doc, sort_keys=True) for _, _, _, doc in merged]
    path = os.path.join(root, MERGED_FILE)
    _atomic_write_lines(path, lines)
    return {
        "path": path,
        "trace_id": trace_id,
        "events": len(merged),
        "shards": shard_lanes,
        "supervisor_events": supervisor_events,
        "chaos_events": len(chaos),
    }


def read_merged_trace(root: str) -> list[dict]:
    """The merged timeline's records, in timeline order."""
    path = os.path.join(root, MERGED_FILE)
    records: list[dict] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# ----------------------------------------------------------------------
# Chrome/Perfetto trace-event export
# ----------------------------------------------------------------------


def export_chrome_trace(
    context: TraceContext | str, path: str | None = None
) -> int:
    """Render the merged timeline as Chrome trace-event JSON.

    One "process" lane per shard (pid assigned in sorted lane order,
    starting at 1) plus pid 0 for the supervisor, so Perfetto /
    ``chrome://tracing`` shows the fleet the way the runner saw it:
    spans as complete (``"X"``) slices on their shard's lane, plain
    events as instants, supervisor recovery events spread along a
    logical-step axis.  Timestamps are *simulated* microseconds (the
    trace contract keeps wall clock out of exported artifacts).

    Returns the number of trace events written (metadata included).
    Merges the lanes first if ``fleet_trace.jsonl`` does not exist yet.
    """
    root = context.root if isinstance(context, TraceContext) else str(context)
    if not os.path.exists(os.path.join(root, MERGED_FILE)):
        merge_fleet_trace(context)
    records = read_merged_trace(root)

    lanes = sorted({doc["lane"] for doc in records} - {SUPERVISOR_LANE})
    pids = {SUPERVISOR_LANE: 0}
    pids.update({lane: index + 1 for index, lane in enumerate(lanes)})

    trace_events: list[dict] = []
    for lane in [SUPERVISOR_LANE, *lanes]:
        trace_events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pids[lane],
                "tid": 0,
                "args": {"name": lane},
            }
        )
    for doc in records:
        pid = pids[doc["lane"]]
        if doc.get("event") == "span":
            trace_events.append(
                {
                    "name": str(doc.get("name", "span")),
                    "ph": "X",
                    "pid": pid,
                    "tid": 0,
                    "ts": float(doc.get("sim_start", doc.get("t", 0.0))) * 1e6,
                    "dur": float(doc.get("sim_duration", 0.0)) * 1e6,
                    "args": {
                        key: value
                        for key, value in doc.items()
                        if key not in ("lane", "event")
                    },
                }
            )
        else:
            trace_events.append(
                {
                    "name": str(doc.get("event", "event")),
                    "ph": "i",
                    "pid": pid,
                    "tid": 0,
                    "ts": float(doc.get("t", 0.0)) * 1e6,
                    "s": "t",
                    "args": {
                        key: value
                        for key, value in doc.items()
                        if key not in ("lane", "event", "t")
                    },
                }
            )

    out_path = path or os.path.join(root, CHROME_FILE)
    payload = {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"lanes": len(pids)},
    }
    _atomic_write_lines(
        out_path, [json.dumps(payload, sort_keys=True, default=repr)]
    )
    return len(trace_events)
