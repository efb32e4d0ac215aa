"""A hub that keeps no events measures the same run as one that does.

Fleet shard hubs publish to ``NULL_SINK`` and keep no spans; only a
trace capture attaches the ``MemorySink`` its sidecar reads.  Such a hub
builds no event records, yet it must count the same events and hold the
same metrics, reservoirs included, as a hub whose sink keeps them.
"""

import itertools

import numpy as np
import pytest

import repro.telemetry.hub as hub_module
from repro.core.controller import PFMController
from repro.resilience.sanitizer import GaugeSanitizer
from repro.simulator import Engine, RandomStreams
from repro.telecom import SCPConfig, SCPSystem
from repro.telemetry import tracing
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.sinks import NULL_SINK, MemorySink


class _Threshold:
    threshold = 0.5

    def score_samples(self, x):
        return np.atleast_2d(x)[:, 0]


class _TickingClock:
    """A deterministic ``perf_counter``, so wall histograms repeat."""

    def __init__(self) -> None:
        self._ticks = itertools.count()

    def perf_counter(self) -> float:
        return next(self._ticks) * 1e-6


def _scripted_run(hub: TelemetryHub, monkeypatch) -> PFMController:
    """Six simulated hours: NaN reads, a memory leak, warnings, actions."""
    monkeypatch.setattr(hub_module, "time", _TickingClock())
    engine = Engine()
    system = SCPSystem(engine, RandomStreams(5), SCPConfig(n_containers=3))
    controller = PFMController(
        system=system,
        predictor=_Threshold(),
        variables=["swap_activity", "cpu_utilization", "memory_free_mb"],
        cooldown=60.0,
        sanitizer=GaugeSanitizer(lower_bound=0.0),
        telemetry=hub,
    )
    controller.calibrate_confidence(np.array([0.5, 1.0]))
    reads = itertools.count()
    controller.observation_taps.append(
        lambda variable, value: float("nan") if next(reads) % 29 == 0 else value
    )

    def leak():
        container = system.containers[0]
        container.leaked_mb = container.memory_mb * 0.69

    engine.schedule(3_600.0, leak)
    system.start()
    controller.start()
    engine.run(until=6 * 3_600.0)
    controller.finalize_telemetry()
    return controller


def test_a_hub_without_a_reader_counts_and_measures_the_same(monkeypatch):
    keeping = TelemetryHub()
    reader_free = TelemetryHub(sink=NULL_SINK, keep_spans=False)
    kept = _scripted_run(keeping, monkeypatch)
    dropped = _scripted_run(reader_free, monkeypatch)

    assert kept.mea.warnings_raised > 0
    assert kept.sanitizer.total_substitutions > 0
    assert reader_free.published_events == keeping.published_events
    assert keeping.published_events == len(keeping.events)
    assert reader_free.events == [] and reader_free.finished_spans == []
    assert reader_free.registry.to_state() == keeping.registry.to_state()
    assert dropped.evaluations == kept.evaluations


def test_a_sink_added_later_receives_later_events():
    hub = TelemetryHub(sink=NULL_SINK)
    hub.emit("before")
    sink = MemorySink()
    hub.add_sink(sink)
    with hub.span("work"):
        hub.emit("after")
    assert [event.name for event in sink.events] == ["after", "span"]
    assert hub.published_events == 3


@pytest.fixture()
def capture():
    tracing.begin_shard_capture()
    yield
    tracing.end_shard_capture()


def test_announcing_inside_a_capture_arms_the_sidecar_sink(capture):
    hub = TelemetryHub(sink=NULL_SINK, keep_spans=False)
    tracing.announce_shard_hub(hub)
    hub.emit("e")
    assert [event.name for event in hub.events] == ["e"]
    assert tracing.end_shard_capture() == [hub]


def test_announcing_outside_a_capture_keeps_nothing():
    hub = TelemetryHub(sink=NULL_SINK, keep_spans=False)
    tracing.announce_shard_hub(hub)
    hub.emit("e")
    assert hub.sinks == [NULL_SINK] and hub.events == []
    assert hub.published_events == 1
