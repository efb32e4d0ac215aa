import pytest

from repro.errors import ConfigurationError
from repro.resilience import BreakerState, CircuitBreaker, RetryPolicy


class TestRetryPolicy:
    def test_no_backoff_before_first_failure(self):
        policy = RetryPolicy()
        assert policy.backoff(0) == 0.0
        assert policy.backoff(-3) == 0.0

    def test_exponential_growth(self):
        policy = RetryPolicy(backoff_base=30.0, backoff_factor=2.0, backoff_max=600.0)
        assert policy.backoff(1) == 30.0
        assert policy.backoff(2) == 60.0
        assert policy.backoff(3) == 120.0

    def test_backoff_capped(self):
        policy = RetryPolicy(backoff_base=30.0, backoff_factor=2.0, backoff_max=100.0)
        assert policy.backoff(10) == 100.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow(0.0)

    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        for _ in range(2):
            breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.times_opened == 1

    def test_success_resets_failure_run(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.record_success(0.0)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED

    def test_open_rejects_until_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=100.0)
        breaker.record_failure(10.0)
        assert not breaker.allow(50.0)
        assert breaker.calls_rejected == 1
        # Cooldown elapsed: half-open, one probe allowed.
        assert breaker.allow(111.0)
        assert breaker.state is BreakerState.HALF_OPEN

    def test_half_open_success_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, cooldown=100.0)
        breaker.record_failure(0.0)
        assert breaker.allow(200.0)
        breaker.record_success(200.0)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_failures == 0

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=100.0)
        for _ in range(3):
            breaker.record_failure(0.0)
        assert breaker.allow(200.0)
        breaker.record_failure(200.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.times_opened == 2
        # And the new open period starts at the half-open failure time.
        assert not breaker.allow(250.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(cooldown=-1.0)
