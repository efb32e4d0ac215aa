"""Sim-time telemetry: the PFM stack observing itself.

The paper's thesis is that runtime monitoring enables proactive fault
management; this package turns that monitoring on the PFM stack itself.
One :class:`TelemetryHub` per run carries

- an **event bus** keyed by simulated time (warning episodes, breaker
  transitions, sanitizer substitutions, step failures, ...),
- a **metrics registry** (counters, gauges, reservoir histograms),
- **spans** with dual wall-clock / simulated-time accounting, and
- an online :class:`RollingQualityTracker` streaming the Sect. 3.3
  precision / recall / FPR metrics as live gauges.

Everything defaults to the disabled :data:`NULL_HUB`, whose operations
are shared-singleton no-ops -- instrumented hot paths cost nothing when
telemetry is off.  Exporters produce a JSONL event trace, a Prometheus
text snapshot, and a human-readable run summary.
"""

from repro.telemetry.events import TelemetryEvent
from repro.telemetry.exporters import (
    export_jsonl,
    prometheus_text,
    read_jsonl,
    run_summary,
    scrub_wall_fields,
    span_profile,
)
from repro.telemetry.hub import NULL_HUB, TelemetryHub
from repro.telemetry.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.rolling import RollingQualityTracker
from repro.telemetry.sinks import MemorySink, NullSink
from repro.telemetry.spans import NULL_SPAN, Span
from repro.telemetry.tracing import (
    SupervisorRecorder,
    TraceContext,
    announce_shard_hub,
    derive_span_id,
    derive_trace_id,
    export_chrome_trace,
    merge_fleet_trace,
    read_merged_trace,
    read_trace_file,
    write_shard_trace,
)

__all__ = [
    "TelemetryEvent",
    "TelemetryHub",
    "NULL_HUB",
    "NULL_SPAN",
    "Span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RollingQualityTracker",
    "NullSink",
    "MemorySink",
    "export_jsonl",
    "read_jsonl",
    "prometheus_text",
    "run_summary",
    "scrub_wall_fields",
    "span_profile",
    "TraceContext",
    "SupervisorRecorder",
    "derive_trace_id",
    "derive_span_id",
    "announce_shard_hub",
    "write_shard_trace",
    "merge_fleet_trace",
    "read_trace_file",
    "read_merged_trace",
    "export_chrome_trace",
]
