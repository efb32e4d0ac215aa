import pytest

from repro.core import EvaluationResult, MEACycle
from repro.errors import ConfigurationError
from repro.simulator import Engine


def make_cycle(engine, score_fn, act_log, period=10.0):
    return MEACycle(
        engine=engine,
        monitor=lambda: engine.now,
        evaluate=lambda obs: EvaluationResult(
            score=score_fn(obs),
            warning=score_fn(obs) >= 0.5,
            confidence=score_fn(obs),
            target="c1",
        ),
        act=lambda ev: act_log.append(ev.confidence) or "acted",
        period=period,
    )


class TestCycle:
    def test_repeats_at_period(self):
        engine = Engine()
        cycle = make_cycle(engine, lambda obs: 0.0, [], period=10.0)
        cycle.start()
        engine.run(until=55.0)
        assert len(cycle.history) == 6  # t = 0, 10, ..., 50

    def test_act_only_on_warning(self):
        engine = Engine()
        acted = []
        # Warn after t = 30.
        cycle = make_cycle(
            engine, lambda obs: 1.0 if obs >= 30.0 else 0.0, acted, period=10.0
        )
        cycle.start()
        engine.run(until=55.0)
        assert len(acted) == 3  # at t = 30, 40, 50
        assert cycle.warnings_raised == 3
        assert cycle.actions_taken == 3

    def test_act_may_decline(self):
        engine = Engine()
        cycle = MEACycle(
            engine=engine,
            monitor=lambda: None,
            evaluate=lambda obs: EvaluationResult(score=1.0, warning=True),
            act=lambda ev: None,  # selector said "do nothing"
            period=10.0,
        )
        cycle.start()
        engine.run(until=25.0)
        assert cycle.warnings_raised == 3
        assert cycle.actions_taken == 0

    def test_stop(self):
        engine = Engine()
        cycle = make_cycle(engine, lambda obs: 0.0, [], period=10.0)
        cycle.start()
        engine.schedule(25.0, cycle.stop)
        engine.run(until=100.0)
        assert len(cycle.history) <= 4

    def test_step_records_observation(self):
        engine = Engine()
        cycle = make_cycle(engine, lambda obs: 0.0, [])
        record = cycle.step()
        assert record.observation == 0.0
        assert record.action_taken is None

    def test_start_idempotent(self):
        engine = Engine()
        cycle = make_cycle(engine, lambda obs: 0.0, [], period=10.0)
        cycle.start()
        cycle.start()
        engine.run(until=25.0)
        assert len(cycle.history) == 3

    def test_rejects_bad_period(self):
        with pytest.raises(ConfigurationError):
            make_cycle(Engine(), lambda obs: 0.0, [], period=0.0)


class Flaky:
    """Callable that fails the first ``failures`` invocations."""

    def __init__(self, fn, failures):
        self.fn = fn
        self.failures = failures
        self.calls = 0

    def __call__(self, *args):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError("flaky step")
        return self.fn(*args)


class TestStepFailures:
    def make_resilient(self, engine, monitor, retry=None):
        from repro.core import MEACycle

        return MEACycle(
            engine=engine,
            monitor=monitor,
            evaluate=lambda obs: EvaluationResult(score=0.0, warning=False),
            act=lambda ev: None,
            period=10.0,
            retry=retry,
        )

    def test_monitor_exception_recorded_not_fatal(self):
        engine = Engine()

        def bad_monitor():
            raise RuntimeError("gauge tree on fire")

        cycle = self.make_resilient(engine, bad_monitor)
        cycle.start()
        engine.run(until=35.0)
        # The cycle survived every iteration and recorded each failure.
        assert len(cycle.history) == 4
        assert all(r.failed_steps == ("monitor",) for r in cycle.history)
        assert cycle.degraded_iterations == 4
        assert cycle.failures_by_step() == {"monitor": 4}
        failure = cycle.failures[0]
        assert failure.step == "monitor"
        assert failure.error_type == "RuntimeError"
        assert "on fire" in failure.message

    def test_evaluate_failure_yields_null_evaluation(self):
        import math

        engine = Engine()
        cycle = MEACycle(
            engine=engine,
            monitor=lambda: 1.0,
            evaluate=Flaky(lambda obs: EvaluationResult(0.0, False), failures=10**9),
            act=lambda ev: "acted",
            period=10.0,
        )
        record = cycle.step()
        assert record.failed_steps == ("evaluate",)
        assert math.isnan(record.evaluation.score)
        assert not record.evaluation.warning
        assert record.action_taken is None

    def test_act_failure_recorded(self):
        engine = Engine()
        cycle = MEACycle(
            engine=engine,
            monitor=lambda: 1.0,
            evaluate=lambda obs: EvaluationResult(score=1.0, warning=True),
            act=Flaky(lambda ev: "acted", failures=10**9),
            period=10.0,
        )
        record = cycle.step()
        assert record.failed_steps == ("act",)
        assert cycle.failures_by_step() == {"act": 1}

    def test_retry_masks_transient_failure(self):
        from repro.resilience import RetryPolicy

        engine = Engine()
        monitor = Flaky(lambda: 1.0, failures=1)
        cycle = self.make_resilient(
            engine, monitor, retry=RetryPolicy(max_attempts=2)
        )
        record = cycle.step()
        assert record.failed_steps == ()
        assert monitor.calls == 2
        assert cycle.failures == []

    def test_retry_exhaustion_reports_attempts(self):
        from repro.resilience import RetryPolicy

        engine = Engine()
        monitor = Flaky(lambda: 1.0, failures=10**9)
        cycle = self.make_resilient(
            engine, monitor, retry=RetryPolicy(max_attempts=3)
        )
        cycle.step()
        assert cycle.failures[0].attempts == 3

    def test_backoff_slows_failing_cycle(self):
        from repro.resilience import RetryPolicy

        engine = Engine()
        cycle = self.make_resilient(
            engine,
            Flaky(lambda: 1.0, failures=10**9),
            retry=RetryPolicy(
                max_attempts=1, backoff_base=40.0, backoff_factor=2.0,
                backoff_max=1000.0,
            ),
        )
        cycle.start()
        engine.run(until=200.0)
        # Delays: 10+40, 10+80, 10+160 ... instead of 10, 10, 10.
        times = [r.time for r in cycle.history]
        assert times == [0.0, 50.0, 140.0]


def test_a_simulation_error_ends_the_run_instead_of_the_step():
    """Step containment is for faults of the PFM stack; a broken
    simulation under it raises out of the cycle, unretried."""
    from repro.errors import SimulationError
    from repro.resilience import RetryPolicy

    engine = Engine()
    calls = []

    def broken(ev):
        calls.append(ev)
        raise SimulationError("the simulation cannot be copied")

    cycle = MEACycle(
        engine=engine,
        monitor=lambda: 1.0,
        evaluate=lambda obs: EvaluationResult(score=1.0, warning=True),
        act=broken,
        period=10.0,
        retry=RetryPolicy(max_attempts=3),
    )
    cycle.start()
    with pytest.raises(SimulationError, match="cannot be copied"):
        engine.run(until=50.0)
    assert len(calls) == 1
    assert cycle.failures == []
