"""The instrumented stack: MEA spans/events, breaker transitions,
sanitizer substitution events, fallback predictor spans."""

import numpy as np
import pytest

from repro.core.mea import MEACycle
from repro.resilience.fallback import FallbackPredictor
from repro.resilience.policies import CircuitBreaker, RetryPolicy
from repro.resilience.sanitizer import GaugeSanitizer
from repro.simulator import Engine
from repro.telemetry import TelemetryHub
from repro.telemetry import events as tel_events


def _cycle(engine, hub, monitor=None, evaluate=None, **kwargs):
    from repro.core.mea import EvaluationResult

    return MEACycle(
        engine=engine,
        monitor=monitor or (lambda: 1.0),
        evaluate=evaluate
        or (lambda obs: EvaluationResult(score=0.0, warning=False)),
        act=lambda evaluation: "noop",
        telemetry=hub,
        **kwargs,
    )


class TestMEASpans:
    def test_cycle_span_wraps_step_spans(self):
        engine, hub = Engine(), TelemetryHub()
        hub.bind_clock(lambda: engine.now)
        cycle = _cycle(engine, hub)
        cycle.step()
        cycle_span = hub.spans_named("mea.cycle")[0]
        for step in ("mea.monitor", "mea.evaluate"):
            child = hub.spans_named(step)[0]
            assert child.parent_id == cycle_span.span_id
        assert hub.spans_named("mea.act") == []  # no warning -> no act
        assert hub.registry.counter("mea_cycles_total").value == 1

    def test_warning_cycle_runs_act_span_and_counters(self):
        from repro.core.mea import EvaluationResult

        engine, hub = Engine(), TelemetryHub()
        hub.bind_clock(lambda: engine.now)
        cycle = _cycle(
            engine,
            hub,
            evaluate=lambda obs: EvaluationResult(score=1.0, warning=True),
        )
        cycle.step()
        assert len(hub.spans_named("mea.act")) == 1
        assert hub.registry.counter("mea_warnings_total").value == 1
        assert hub.registry.counter("mea_actions_total").value == 1
        span = hub.spans_named("mea.cycle")[0]
        assert span.attributes["warning"] is True
        assert span.attributes["action"] == "noop"

    def test_failing_step_emits_retry_then_failure_events(self):
        engine, hub = Engine(), TelemetryHub()
        hub.bind_clock(lambda: engine.now)

        def bad_monitor():
            raise RuntimeError("gauge exploded")

        cycle = _cycle(
            engine, hub, monitor=bad_monitor, retry=RetryPolicy(max_attempts=3)
        )
        cycle.step()
        retries = [e for e in hub.events if e.name == tel_events.RETRY]
        assert [e.fields["attempt"] for e in retries] == [1, 2]
        failures = [
            e for e in hub.events if e.name == tel_events.MEA_STEP_FAILURE
        ]
        assert len(failures) == 1
        assert failures[0].fields["step"] == "monitor"
        assert failures[0].fields["error_type"] == "RuntimeError"
        assert failures[0].fields["attempts"] == 3
        span = hub.spans_named("mea.monitor")[0]
        assert span.status == "error"
        assert (
            hub.registry.counter("mea_retries_total", step="monitor").value == 2
        )
        assert (
            hub.registry.counter(
                "mea_step_failures_total", step="monitor"
            ).value
            == 1
        )
        assert hub.registry.counter("mea_degraded_cycles_total").value == 1
        assert (
            hub.registry.gauge("mea_consecutive_failed_cycles").value == 1.0
        )


class TestBreakerTransitions:
    def test_full_state_walk_is_streamed(self):
        transitions = []
        breaker = CircuitBreaker(
            name="b",
            failure_threshold=2,
            cooldown=100.0,
            on_transition=lambda *args: transitions.append(args),
        )
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)  # trips
        assert not breaker.allow(50.0)  # still open, no transition
        assert breaker.allow(101.0)  # half-open probe
        breaker.record_success(102.0)  # closes
        assert transitions == [
            ("b", "closed", "open", 1.0),
            ("b", "open", "half-open", 101.0),
            ("b", "half-open", "closed", 102.0),
        ]

    def test_redundant_success_does_not_emit(self):
        transitions = []
        breaker = CircuitBreaker(
            name="b", on_transition=lambda *args: transitions.append(args)
        )
        breaker.record_success(0.0)  # closed -> closed: no event
        assert transitions == []


class TestSanitizerEvents:
    def test_substitutions_counted_per_variable_and_reason(self):
        hub = TelemetryHub()
        sanitizer = GaugeSanitizer(telemetry=hub)
        sanitizer.read("cpu", lambda: float("nan"))
        sanitizer.read("cpu", lambda: 0.5)
        events = [
            e for e in hub.events if e.name == tel_events.SANITIZER_SUBSTITUTION
        ]
        assert len(events) == 1
        assert events[0].fields == {"variable": "cpu", "reason": "nan"}
        counter = hub.registry.counter(
            "sanitizer_substitutions_total", variable="cpu", reason="nan"
        )
        assert counter.value == 1

    def test_stale_transition_fires_exactly_once(self):
        hub = TelemetryHub()
        sanitizer = GaugeSanitizer(telemetry=hub, stale_after=2)
        for _ in range(4):
            sanitizer.read("cpu", lambda: float("nan"))
        stale = [e for e in hub.events if e.name == tel_events.SANITIZER_STALE]
        assert len(stale) == 1
        assert stale[0].fields["consecutive_bad"] == 2
        assert hub.registry.counter("sanitizer_stale_total").value == 1


class _FaultyPrimary:
    threshold = 0.5

    def score_samples(self, x):
        raise RuntimeError("model crashed")


class _SteadySecondary:
    threshold = 0.5

    def score_samples(self, x):
        return np.zeros(len(x))


class TestFallbackTelemetry:
    def test_faults_failover_and_breaker_events(self):
        hub = TelemetryHub()
        clock = {"now": 0.0}
        predictor = FallbackPredictor(
            primary=_FaultyPrimary(),
            secondary=_SteadySecondary(),
            clock=lambda: clock["now"],
            failure_threshold=2,
            telemetry=hub,
        )
        for step in range(3):
            clock["now"] = float(step)
            result = predictor.score(np.array([1.0]))
        assert result.source == "secondary"
        faults = [
            e for e in hub.events if e.name == tel_events.PREDICTOR_FAULT
        ]
        assert len(faults) == 2  # third call: breaker already open
        assert all(e.fields["reason"] == "exception" for e in faults)
        transitions = [
            e for e in hub.events if e.name == tel_events.BREAKER_TRANSITION
        ]
        assert [(e.fields["from_state"], e.fields["to"]) for e in transitions] == [
            ("closed", "open")
        ]
        spans = hub.spans_named("evaluate.score")
        assert len(spans) == 3
        assert spans[0].attributes["source"] == "secondary"
        assert (
            hub.registry.counter(
                "predictor_scores_total", source="secondary"
            ).value
            == 3
        )

    def test_latency_fault_reason(self):
        hub = TelemetryHub()

        class SlowPrimary(_SteadySecondary):
            simulated_latency = 100.0

        predictor = FallbackPredictor(
            primary=SlowPrimary(),
            secondary=_SteadySecondary(),
            clock=lambda: 0.0,
            latency_budget=10.0,
            telemetry=hub,
        )
        result = predictor.score(np.array([1.0]))
        assert result.source == "secondary"
        fault = [
            e for e in hub.events if e.name == tel_events.PREDICTOR_FAULT
        ][0]
        assert fault.fields["reason"] == "latency"


class TestHSMMProfiling:
    def test_score_batch_span_records_sequence_count(self):
        pytest.importorskip("numpy")
        from repro.monitoring.records import EventSequence
        from repro.prediction.hsmm import HSMMPredictor

        rng = np.random.default_rng(0)

        def seqs(n, origin=0.0):
            out = []
            for _ in range(n):
                times = sorted(rng.uniform(0, 50, size=6))
                ids = [int(x) for x in rng.integers(0, 3, size=6)]
                out.append(
                    EventSequence(times=times, message_ids=ids, origin=origin)
                )
            return out

        hub = TelemetryHub()
        predictor = HSMMPredictor(
            n_states_failure=2,
            n_states_nonfailure=2,
            max_iter=2,
            telemetry=hub,
        )
        predictor.fit_sequences(seqs(4), seqs(4))
        predictor.score_sequences(seqs(3))
        span = hub.spans_named("hsmm.score_batch")[0]
        assert span.attributes["sequences"] == 3
        predictor.score_sequence(seqs(1)[0])
        assert len(hub.spans_named("hsmm.score")) >= 1
