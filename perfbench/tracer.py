"""Span recording around the program's public entry points.

The traced benchmark run wraps the functions and methods that
:func:`install` names with a timer that records one span per call:
``(span id, parent span id, name, start ns, end ns, info)``.  Spans stay
in memory; :meth:`Tracer.flush` writes them once, as one JSON file, into
the run's directory.  Nothing under ``src/`` changes: the wrappers are
installed from here, at run time.

Timestamps come from ``CLOCK_MONOTONIC``, which every process on the
host shares.  That lets a forked fleet worker's spans hang off the
parent's ``fleet.run`` span: the worker inherits the open-span stack at
fork, starts an empty span list (:meth:`Tracer._after_fork`), and
flushes its own file at the end of every shard.

:func:`analyze` turns the span files of one run into the per-layer
metrics of :data:`LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
import weakref
from collections import Counter


def now_ns() -> int:
    """``CLOCK_MONOTONIC`` in ns: one time base for every process."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Tracer:
    """In-memory span recorder for one process of one benchmark run."""

    def __init__(self, run_id: str, out_dir: str) -> None:
        self.run_id = run_id
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._next = 0
        self._flushes = 0
        #: Engine -> SCP system, so ``Engine.run`` spans can count ticks.
        self.systems: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        #: Controllers built since the last flush (resilience counters).
        self.controllers: list = []
        #: (model, sequence) pairs already scored by an HSMM.
        self.scored_pairs: set = set()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The open stack stays: its spans are still open in the parent,
        # so the worker's first span names the parent's span as parent.
        self.pid = os.getpid()
        self.spans = []
        self.counts = Counter()
        self.controllers = []
        self.scored_pairs = set()
        self._next = 0
        self._flushes = 0

    def open(self) -> tuple[int, int | None]:
        """Start a span; returns ``(span id, parent span id)``."""
        self._next += 1
        sid = (self.pid << 32) | self._next
        parent = self.stack[-1] if self.stack else None
        self.stack.append(sid)
        return sid, parent

    def close(self, sid, parent, name, start, end, info=None) -> None:
        """Finish the innermost span and keep its record."""
        self.stack.pop()
        self.spans.append((sid, parent, name, start, end, info))

    def in_worker(self) -> bool:
        """Whether this process was forked inside a span of its parent."""
        return bool(self.stack) and (self.stack[0] >> 32) != self.pid

    def flush(self) -> None:
        """Write the spans and counts recorded so far to one file, then
        forget them."""
        self._settle_controllers()
        self._flushes += 1
        path = os.path.join(
            self.out_dir, f"spans-{self.pid}-{self._flushes}.json"
        )
        doc = {
            "run_id": self.run_id,
            "pid": self.pid,
            "spans": self.spans,
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        self.spans = []
        self.counts = Counter()

    def _settle_controllers(self) -> None:
        for controller in self.controllers:
            summary = controller.resilience_summary()
            self.counts["resilience.substitutions"] += sum(
                sum(reasons.values())
                for reasons in summary["sanitizer_events"].values()
            )
            self.counts["resilience.step_failures"] += sum(
                summary["step_failures"].values()
            )
            for key in (
                "predictor_faults",
                "fallback_scores",
                "breaker_opens",
                "escalations",
            ):
                self.counts[f"resilience.{key}"] += int(summary[key])
        self.controllers = []


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------


def _wrap(tracer: Tracer, name: str, fn, before=None, describe=None, when=None):
    """``fn`` with one span per call.

    ``before(args)`` runs ahead of the call and its value is handed to
    ``describe(args, result, state)``, which returns the span's ``info``.
    ``when(args)`` false skips recording for that call.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if when is not None and not when(args):
            return fn(*args, **kwargs)
        state = before(args) if before is not None else None
        sid, parent = tracer.open()
        start = now_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(sid, parent, name, start, now_ns(), {"error": True})
            raise
        end = now_ns()
        info = describe(args, result, state) if describe is not None else None
        tracer.close(sid, parent, name, start, end, info)
        return result

    return traced


def _patch_function(module_name: str, attr: str, make) -> None:
    """Replace a module-level function everywhere it was imported by name."""
    module = importlib.import_module(module_name)
    original = getattr(module, attr)
    wrapped = make(original)
    for loaded in list(sys.modules.values()):
        name = getattr(loaded, "__name__", "")
        if name.startswith("repro") and loaded.__dict__.get(attr) is original:
            setattr(loaded, attr, wrapped)


def _patch_method(cls, attr: str, make) -> None:
    """Replace a method where ``cls`` itself defines it."""
    original = cls.__dict__.get(attr)
    if original is not None:
        setattr(cls, attr, make(original))


def _subclasses(cls) -> list:
    """``cls`` and all its subclasses, each once."""
    out, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in out:
            out.append(current)
            todo.extend(current.__subclasses__())
    return out


def _rows(result) -> int:
    try:
        return len(result)
    except TypeError:
        return 0


def _step_info(args, record, state):
    return {
        "warning": bool(record.evaluation.warning),
        "action": record.action_taken is not None,
    }


def install_step_timer(tracer: Tracer) -> None:
    """Wrap only ``MEACycle.step``: the one timer untraced runs keep."""
    from repro.core.mea import MEACycle

    _patch_method(
        MEACycle,
        "step",
        lambda fn: _wrap(tracer, "core.mea.step", fn, describe=_step_info),
    )


def install(tracer: Tracer) -> None:
    """Wrap every entry point the traced run records."""

    import numpy as np
    from repro.actions.base import Action
    from repro.core.controller import PFMController
    from repro.fleet.aggregate import FleetReport
    from repro.fleet.artifacts import ArtifactStore
    from repro.fleet.ledger import ShardLedger
    from repro.markov.hsmm import HiddenSemiMarkovModel
    from repro.monitoring.collectors import PeriodicCollector
    from repro.monitoring.logbook import ErrorLog
    from repro.prediction.arbitration import NoisyOrArbitrator
    from repro.prediction.base import Predictor, _ThresholdMixin
    from repro.resilience.fallback import FallbackPredictor
    from repro.resilience.sanitizer import GaugeSanitizer
    from repro.simulator.engine import Engine
    from repro.telecom.dataset import TelecomDataset
    from repro.telemetry.hub import TelemetryHub

    def span(name, **hooks):
        return lambda fn: _wrap(tracer, name, fn, **hooks)

    # The registry imports predictor classes lazily; load the ones the
    # workloads build so the subclass walks below find them.
    for module in (
        "repro.prediction.ubf.predictor",
        "repro.prediction.ubf.network",
        "repro.prediction.hsmm.predictor",
        "repro.prediction.baselines.rate",
        "repro.prediction.baselines.mset",
        "repro.resilience.campaign",
    ):
        importlib.import_module(module)

    # --- simulator + telecom ------------------------------------------
    def register(args, sim, state):
        tracer.systems[sim.engine] = sim.system

    _patch_function(
        "repro.telecom.dataset",
        "prepare_simulation",
        span("telecom.prepare", describe=register),
    )

    def engine_before(args):
        engine = args[0]
        system = tracer.systems.get(engine)
        ticks = system.ticks_run if system is not None else 0
        return engine.processed_events, system, ticks

    def engine_info(args, result, state):
        events, system, ticks = state
        return {
            "events": args[0].processed_events - events,
            "ticks": (system.ticks_run - ticks) if system is not None else 0,
        }

    _patch_method(
        Engine, "run", span("simulator.run", before=engine_before, describe=engine_info)
    )
    _patch_method(
        TelecomDataset,
        "training_data",
        span(
            "telecom.dataset",
            describe=lambda a, r, s: {"rows": _rows(r.labels)},
        ),
    )

    # --- monitoring ----------------------------------------------------
    _patch_method(
        PeriodicCollector,
        "sample_once",
        span(
            "monitoring.sample",
            describe=lambda a, r, s: {"gauges": len(a[0].gauges)},
        ),
    )
    _patch_method(ErrorLog, "window", span("monitoring.window"))

    # --- prediction ----------------------------------------------------
    def predictor_info(args, result, state):
        obj = args[0]
        info = {"cls": type(obj).__name__, "obj": id(obj), "rows": _rows(result)}
        if isinstance(obj, NoisyOrArbitrator):
            info["members"] = {
                str(id(m.predictor)): m.name for m in obj.members
            }
        return info

    kinds = {
        "fit": "prediction.fit",
        "fit_samples": "prediction.fit",
        "fit_sequences": "prediction.fit",
        "score_batch": "prediction.score",
        "score_samples": "prediction.score",
        "score_sequences": "prediction.score",
        "calibrate_threshold": "prediction.calibrate",
    }
    for cls in _subclasses(Predictor) + [_ThresholdMixin]:
        for attr, name in kinds.items():
            _patch_method(cls, attr, span(name, describe=predictor_info))
    _patch_function(
        "repro.prediction.ubf.kernels",
        "kernel_matrix",
        span("prediction.ubf.kernel"),
    )

    # --- markov --------------------------------------------------------
    def loglik_before(args):
        model, sequences = args[0], args[1]
        model_key = hash((id(model), model.emission.tobytes()))
        symbols = repeats = 0
        for seq in sequences:
            raw = np.asarray(seq).tobytes()
            symbols += len(seq)
            key = (model_key, raw)
            if key in tracer.scored_pairs:
                repeats += 1
            else:
                tracer.scored_pairs.add(key)
        return {"sequences": len(sequences), "symbols": symbols, "repeats": repeats}

    _patch_method(
        HiddenSemiMarkovModel,
        "log_likelihood_batch",
        span(
            "markov.hsmm.loglik",
            before=loglik_before,
            describe=lambda a, r, s: s,
        ),
    )
    _patch_method(HiddenSemiMarkovModel, "fit", span("markov.hsmm.fit"))

    # --- core ----------------------------------------------------------
    install_step_timer(tracer)
    original_post_init = PFMController.__post_init__

    def post_init(self) -> None:
        original_post_init(self)
        mea = self.mea
        mea.monitor = _wrap(tracer, "core.mea.monitor", mea.monitor)
        mea.evaluate = _wrap(tracer, "core.mea.evaluate", mea.evaluate)
        mea.act = _wrap(tracer, "core.mea.act", mea.act)
        tracer.controllers.append(self)

    PFMController.__post_init__ = post_init

    # --- resilience + actions -----------------------------------------
    _patch_method(GaugeSanitizer, "read", span("resilience.sanitize"))
    _patch_method(
        FallbackPredictor,
        "score",
        span(
            "resilience.score",
            describe=lambda a, r, s: {"source": r.source},
        ),
    )
    for cls in _subclasses(Action):
        _patch_method(
            cls,
            "execute",
            span(
                "actions.execute",
                describe=lambda a, r, s: {"success": bool(r.success)},
            ),
        )

    # --- telemetry (enabled hubs only; NULL_HUB calls pass through) ----
    _patch_method(
        TelemetryHub,
        "emit",
        span("telemetry.emit", when=lambda a: a[0].enabled),
    )
    _patch_method(TelemetryHub, "_open_span", span("telemetry.span_open"))
    _patch_method(TelemetryHub, "_close_span", span("telemetry.span_close"))

    # --- fleet ---------------------------------------------------------
    def cpu_before(args):
        children = resource.getrusage(resource.RUSAGE_CHILDREN)
        return time.process_time(), children.ru_utime + children.ru_stime

    def fleet_info(args, report, state):
        cpu, children_cpu = cpu_before(())
        recovery = report.timing.get("recovery") or {}
        return {
            "cpu": cpu - state[0],
            "children_cpu": children_cpu - state[1],
            "workers": report.timing.get("workers", 1),
            "retries": recovery.get("retries", 0),
            "worker_restarts": recovery.get("worker_restarts", 0),
        }

    _patch_function(
        "repro.fleet.runner",
        "run_fleet",
        span("fleet.run", before=cpu_before, describe=fleet_info),
    )
    _patch_function(
        "repro.fleet.artifacts",
        "prewarm_training",
        span(
            "fleet.prewarm",
            before=cpu_before,
            describe=lambda a, r, s: {
                "cpu": time.process_time() - s[0],
                "trained": r["trained"],
            },
        ),
    )

    def shard(fn):
        traced = _wrap(tracer, "fleet.shard", fn)

        @functools.wraps(fn)
        def shard_and_flush(*args, **kwargs):
            try:
                return traced(*args, **kwargs)
            finally:
                if tracer.in_worker():
                    tracer.flush()

        return shard_and_flush

    _patch_function("repro.fleet.shards", "execute_spec", shard)
    _patch_method(ShardLedger, "append", span("fleet.ledger"))
    _patch_method(FleetReport, "aggregate_json", span("fleet.aggregate"))
    _patch_method(
        ArtifactStore,
        "load",
        span(
            "fleet.artifact_load",
            describe=lambda a, r, s: {"hit": r is not None},
        ),
    )


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------

#: Per-layer metrics of the traced run: (name, unit).  The layer
#: prefixes are the ``repro`` subpackages the spans sit in.
LAYER_METRICS: list[tuple[str, str]] = [
    ("setup.import_s", "s"),
    ("simulator.events", "count"),
    ("telecom.ticks", "count"),
    ("simulator.self_s", "s"),
    ("simulator.us_per_tick", "us"),
    ("telecom.prepare_s", "s"),
    ("telecom.dataset_s", "s"),
    ("telecom.dataset_rows", "count"),
    ("monitoring.samples", "count"),
    ("monitoring.gauge_reads", "count"),
    ("monitoring.sample_s", "s"),
    ("monitoring.us_per_sample", "us"),
    ("monitoring.window_queries", "count"),
    ("monitoring.window_s", "s"),
    ("prediction.fits", "count"),
    ("prediction.fit_s", "s"),
    ("prediction.rows_scored", "count"),
    ("prediction.score_s", "s"),
    ("prediction.calibrate_s", "s"),
    ("prediction.us_per_row", "us"),
    ("prediction.ubf.fit_s", "s"),
    ("prediction.ubf.kernel_evals", "count"),
    ("prediction.member.ubf.fit_s", "s"),
    ("prediction.member.ubf.score_s", "s"),
    ("prediction.member.hsmm.fit_s", "s"),
    ("prediction.member.hsmm.score_s", "s"),
    ("prediction.member.rate.fit_s", "s"),
    ("prediction.member.rate.score_s", "s"),
    ("prediction.arbitration.surcharge_s", "s"),
    ("markov.hsmm.sequences", "count"),
    ("markov.hsmm.symbols", "count"),
    ("markov.hsmm.loglik_s", "s"),
    ("markov.hsmm.us_per_symbol", "us"),
    ("markov.hsmm.repeat_share", "fraction"),
    ("markov.hsmm.em_fits", "count"),
    ("markov.hsmm.em_s", "s"),
    ("core.mea.cycles", "count"),
    ("core.mea.cycle_s", "s"),
    ("core.mea.cycle_p50_us", "us"),
    ("core.mea.cycle_p99_us", "us"),
    ("core.mea.monitor_s", "s"),
    ("core.mea.evaluate_s", "s"),
    ("core.mea.act_s", "s"),
    ("core.mea.self_s", "s"),
    ("core.mea.warnings", "count"),
    ("core.mea.actions", "count"),
    ("core.mea.acted_share", "fraction"),
    ("resilience.sanitizer_reads", "count"),
    ("resilience.sanitize_s", "s"),
    ("resilience.substitutions", "count"),
    ("resilience.fallback_scores", "count"),
    ("resilience.fallback_s", "s"),
    ("resilience.predictor_faults", "count"),
    ("resilience.step_failures", "count"),
    ("resilience.retries", "count"),
    ("resilience.breaker_opens", "count"),
    ("resilience.escalations", "count"),
    ("actions.executed", "count"),
    ("actions.failed", "count"),
    ("actions.execute_s", "s"),
    ("telemetry.events", "count"),
    ("telemetry.emit_s", "s"),
    ("fleet.shards", "count"),
    ("fleet.prewarm_s", "s"),
    ("fleet.trained", "count"),
    ("fleet.artifact_hit_ratio", "fraction"),
    ("fleet.shard_wall_s", "s"),
    ("fleet.parallel_efficiency", "fraction"),
    ("fleet.parent_cpu_s", "s"),
    ("fleet.worker_cpu_s", "s"),
    ("fleet.ledger_appends", "count"),
    ("fleet.ledger_s", "s"),
    ("fleet.aggregate_s", "s"),
    ("fleet.retries", "count"),
    ("fleet.worker_restarts", "count"),
    ("trace.overhead_share", "fraction"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_share", "fraction"),
]

MEMBERS = ("ubf", "hsmm", "rate")


def self_times(spans) -> dict[int, int]:
    """Span id -> self time in ns: duration minus the part of the span's
    interval that its direct children cover (their union, clipped to the
    span, so overlapping children are not counted twice)."""
    children: dict[int, list[tuple[int, int]]] = {}
    bounds = {}
    for sid, parent, _name, start, end, _info in spans:
        bounds[sid] = (start, end)
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (start, end) in bounds.items():
        covered = 0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[sid] = (end - start) - covered
    return out


def load_spans(paths) -> tuple[list[tuple], Counter]:
    """Merge the span files of one run."""
    spans: list[tuple] = []
    counts: Counter = Counter()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        spans.extend(tuple(span) for span in doc["spans"])
        counts.update(doc["counts"])
    return spans, counts


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def analyze(spans, counts, root_id: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics (:data:`LAYER_METRICS`, without the set-up and
    overhead entries the caller fills in) from one run's spans.

    ``root_id`` is the benchmark's own span around the timed part; its
    self time is the part of ``wall_s`` no layer span covers.
    """
    by_id = {span[0]: span for span in spans}
    self_ns = self_times(spans)

    def ancestors(span):
        parent = span[1]
        while parent is not None and parent in by_id:
            yield by_id[parent]
            parent = by_id[parent][1]

    def prediction_parent(span):
        for anc in ancestors(span):
            if anc[2].startswith("prediction."):
                return anc
        return None

    dur = {span[0]: (span[4] - span[3]) / 1e9 for span in spans}
    named: dict[str, list[tuple]] = {}
    for span in spans:
        named.setdefault(span[2], []).append(span)

    def total(spans_):
        return sum(dur[s[0]] for s in spans_)

    def total_named(name):
        return total(named.get(name, ()))

    def self_total(name):
        return sum(self_ns[s[0]] for s in named.get(name, ())) / 1e9

    def info(span, key, default=0):
        return (span[5] or {}).get(key, default)

    m: dict[str, float] = {}

    runs = named.get("simulator.run", [])
    m["simulator.events"] = sum(info(s, "events") for s in runs)
    m["telecom.ticks"] = sum(info(s, "ticks") for s in runs)
    m["simulator.self_s"] = self_total("simulator.run")
    m["simulator.us_per_tick"] = _ratio(m["simulator.self_s"] * 1e6, m["telecom.ticks"])
    m["telecom.prepare_s"] = total_named("telecom.prepare")
    m["telecom.dataset_s"] = total_named("telecom.dataset")
    m["telecom.dataset_rows"] = sum(
        info(s, "rows") for s in named.get("telecom.dataset", [])
    )

    samples = named.get("monitoring.sample", [])
    m["monitoring.samples"] = len(samples)
    m["monitoring.gauge_reads"] = sum(info(s, "gauges") for s in samples)
    m["monitoring.sample_s"] = total_named("monitoring.sample")
    m["monitoring.us_per_sample"] = _ratio(m["monitoring.sample_s"] * 1e6, len(samples))
    m["monitoring.window_queries"] = len(named.get("monitoring.window", []))
    m["monitoring.window_s"] = total_named("monitoring.window")

    # Prediction: "outermost" calls have no prediction span above them;
    # a panel member's calls sit directly under the panel's span.
    outer: dict[str, list] = {"fit": [], "score": [], "calibrate": []}
    member_s = {(mem, kind): 0.0 for mem in MEMBERS for kind in ("fit", "score")}
    surcharge = 0.0
    ubf_fit = 0.0
    for span in spans:
        name = span[2]
        if name not in ("prediction.fit", "prediction.score", "prediction.calibrate"):
            continue
        kind = name.split(".")[1]
        parent = prediction_parent(span)
        if parent is None:
            outer[kind].append(span)
        elif info(parent, "members", None) and kind != "calibrate":
            member = info(parent, "members").get(str(info(span, "obj")))
            if member in MEMBERS:
                member_s[(member, kind)] += dur[span[0]]
        if info(span, "members", None) and kind != "calibrate":
            surcharge += self_ns[span[0]] / 1e9
        if info(span, "cls") == "UBFPredictor" and kind == "fit":
            if parent is None or info(parent, "cls") != "UBFPredictor":
                ubf_fit += dur[span[0]]
    m["prediction.fits"] = len(outer["fit"])
    m["prediction.fit_s"] = total(outer["fit"])
    m["prediction.rows_scored"] = sum(info(s, "rows") for s in outer["score"])
    m["prediction.score_s"] = total(outer["score"])
    m["prediction.calibrate_s"] = total(outer["calibrate"])
    m["prediction.us_per_row"] = _ratio(
        m["prediction.score_s"] * 1e6, m["prediction.rows_scored"]
    )
    m["prediction.ubf.fit_s"] = ubf_fit
    m["prediction.ubf.kernel_evals"] = len(named.get("prediction.ubf.kernel", []))
    for (member, kind), seconds in member_s.items():
        m[f"prediction.member.{member}.{kind}_s"] = seconds
    m["prediction.arbitration.surcharge_s"] = surcharge

    lls = named.get("markov.hsmm.loglik", [])
    m["markov.hsmm.sequences"] = sum(info(s, "sequences") for s in lls)
    m["markov.hsmm.symbols"] = sum(info(s, "symbols") for s in lls)
    m["markov.hsmm.loglik_s"] = total_named("markov.hsmm.loglik")
    m["markov.hsmm.us_per_symbol"] = _ratio(
        m["markov.hsmm.loglik_s"] * 1e6, m["markov.hsmm.symbols"]
    )
    m["markov.hsmm.repeat_share"] = _ratio(
        sum(info(s, "repeats") for s in lls), m["markov.hsmm.sequences"]
    )
    em_outer = [
        s for s in named.get("markov.hsmm.fit", [])
        if not any(a[2] == "markov.hsmm.fit" for a in ancestors(s))
    ]
    m["markov.hsmm.em_fits"] = len(em_outer)
    m["markov.hsmm.em_s"] = total(em_outer)

    steps = named.get("core.mea.step", [])
    m["core.mea.cycles"] = len(steps)
    m["core.mea.cycle_s"] = total_named("core.mea.step")
    cycle_us = [dur[s[0]] * 1e6 for s in steps]
    m["core.mea.cycle_p50_us"] = _quantile(cycle_us, 0.5)
    m["core.mea.cycle_p99_us"] = _quantile(cycle_us, 0.99)
    for step in ("monitor", "evaluate", "act"):
        m[f"core.mea.{step}_s"] = total_named(f"core.mea.{step}")
    m["core.mea.self_s"] = self_total("core.mea.step")
    m["core.mea.warnings"] = sum(1 for s in steps if info(s, "warning", False))
    m["core.mea.actions"] = sum(1 for s in steps if info(s, "action", False))
    m["core.mea.acted_share"] = _ratio(m["core.mea.actions"], m["core.mea.warnings"])

    # A step callable called twice inside one cycle is a retry.
    attempts: Counter = Counter()
    for step in ("monitor", "evaluate", "act"):
        for span in named.get(f"core.mea.{step}", []):
            attempts[(span[1], step)] += 1
    reads = named.get("resilience.sanitize", [])
    fallback = [
        s
        for s in named.get("resilience.score", [])
        if info(s, "source", "") == "secondary"
    ]
    m["resilience.sanitizer_reads"] = len(reads)
    m["resilience.sanitize_s"] = total_named("resilience.sanitize")
    m["resilience.substitutions"] = counts.get("resilience.substitutions", 0)
    m["resilience.fallback_scores"] = counts.get("resilience.fallback_scores", 0)
    m["resilience.fallback_s"] = total(fallback)
    m["resilience.predictor_faults"] = counts.get("resilience.predictor_faults", 0)
    m["resilience.step_failures"] = counts.get("resilience.step_failures", 0)
    m["resilience.retries"] = sum(n - 1 for n in attempts.values())
    m["resilience.breaker_opens"] = counts.get("resilience.breaker_opens", 0)
    m["resilience.escalations"] = counts.get("resilience.escalations", 0)

    executions = [
        s for s in named.get("actions.execute", [])
        if not any(a[2] == "actions.execute" for a in ancestors(s))
    ]
    m["actions.executed"] = len(executions)
    m["actions.failed"] = sum(
        1 for s in executions
        if info(s, "error", False) or not info(s, "success", True)
    )
    m["actions.execute_s"] = total(executions)

    m["telemetry.events"] = len(named.get("telemetry.emit", [])) + len(
        named.get("telemetry.span_close", [])
    )
    m["telemetry.emit_s"] = (
        total_named("telemetry.emit")
        + total_named("telemetry.span_open")
        + total_named("telemetry.span_close")
    )

    fleet_runs = named.get("fleet.run", [])
    prewarms = named.get("fleet.prewarm", [])
    loads = named.get("fleet.artifact_load", [])
    m["fleet.shards"] = len(named.get("fleet.shard", []))
    m["fleet.prewarm_s"] = total_named("fleet.prewarm")
    m["fleet.trained"] = sum(info(s, "trained") for s in prewarms)
    m["fleet.artifact_hit_ratio"] = _ratio(
        sum(1 for s in loads if info(s, "hit", False)), len(loads)
    )
    m["fleet.shard_wall_s"] = total_named("fleet.shard")
    fleet_wall = total_named("fleet.run")
    workers = max((info(s, "workers", 1) for s in fleet_runs), default=1)
    m["fleet.parallel_efficiency"] = _ratio(
        m["fleet.shard_wall_s"], workers * (fleet_wall - m["fleet.prewarm_s"])
    )
    m["fleet.parent_cpu_s"] = sum(info(s, "cpu", 0.0) for s in fleet_runs) - sum(
        info(s, "cpu", 0.0) for s in prewarms
    )
    m["fleet.worker_cpu_s"] = sum(info(s, "children_cpu", 0.0) for s in fleet_runs)
    m["fleet.ledger_appends"] = len(named.get("fleet.ledger", []))
    m["fleet.ledger_s"] = total_named("fleet.ledger")
    m["fleet.aggregate_s"] = total_named("fleet.aggregate")
    m["fleet.retries"] = sum(info(s, "retries") for s in fleet_runs)
    m["fleet.worker_restarts"] = sum(info(s, "worker_restarts") for s in fleet_runs)

    unattributed = self_ns.get(root_id, 0) / 1e9
    m["trace.unattributed_s"] = unattributed
    m["trace.unattributed_share"] = _ratio(unattributed, wall_s)
    return m
