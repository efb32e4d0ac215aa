import pytest

from repro.errors import ConfigurationError
from repro.faults.injectors import InjectionTarget
from repro.telecom import Component, Tier


def make_component(**kwargs):
    defaults = {
        "name": "c1",
        "tier": Tier.SERVICE_LOGIC,
        "capacity": 2,
        "service_time": 0.02,
        "memory_mb": 4096.0,
    }
    defaults.update(kwargs)
    return Component(**defaults)


class TestProtocols:
    def test_implements_injection_target(self):
        assert isinstance(make_component(), InjectionTarget)

    def test_gauges_readable(self):
        component = make_component()
        for gauge in component.gauges():
            assert isinstance(gauge.read(), float)


class TestMemory:
    def test_leak_accumulates_and_saturates(self):
        component = make_component()
        component.leak_memory(1000.0)
        assert component.leaked_mb == 1000.0
        component.leak_memory(1e9)
        assert component.memory_free_mb == pytest.approx(0.0)

    def test_swap_activity_kicks_in_below_threshold(self):
        component = make_component()
        assert component.swap_activity == 0.0
        # Fill memory so free fraction drops under 25%.
        component.leak_memory(0.6 * component.memory_mb)
        assert component.swap_activity > 0.0

    def test_cleanup_recovers_leak(self):
        component = make_component()
        component.leak_memory(1000.0)
        component.corrupt_state(1.0)
        component.cleanup(effectiveness=0.5)
        assert component.leaked_mb == pytest.approx(500.0)
        assert component.corruption == pytest.approx(0.5)

    def test_cleanup_validation(self):
        with pytest.raises(ConfigurationError):
            make_component().cleanup(effectiveness=1.5)


class TestCapacity:
    def test_degrade_and_restore(self):
        component = make_component(capacity=4)
        component.degrade_capacity(0.5)
        assert component.effective_capacity == pytest.approx(2.0)
        component.restore_capacity()
        assert component.effective_capacity == pytest.approx(4.0)

    def test_degradation_capped(self):
        component = make_component()
        component.degrade_capacity(5.0)
        assert component.effective_capacity > 0.0


class TestStretchModel:
    def test_stretch_grows_with_load(self):
        component = make_component(capacity=2)
        low = component.stretch_factor(10.0, dt=5.0)
        high = component.stretch_factor(400.0, dt=5.0)
        assert high > low

    def test_stretch_saturates_at_overload(self):
        component = make_component(capacity=2)
        over = component.stretch_factor(10_000.0, dt=5.0)
        way_over = component.stretch_factor(100_000.0, dt=5.0)
        assert over == pytest.approx(way_over)
        assert component.utilization > 1.0

    def test_swapping_inflates_stretch(self):
        component = make_component()
        base = component.stretch_factor(10.0, dt=5.0)
        component.leak_memory(0.69 * component.memory_mb)
        swapped = component.stretch_factor(10.0, dt=5.0)
        assert swapped > base * 2

    def test_corruption_inflates_stretch(self):
        component = make_component()
        base = component.stretch_factor(10.0, dt=5.0)
        component.corrupt_state(1.0)
        assert component.stretch_factor(10.0, dt=5.0) > base

    def test_rejects_bad_dt(self):
        with pytest.raises(ConfigurationError):
            make_component().stretch_factor(1.0, dt=0.0)


class TestRestart:
    def test_restart_lifecycle(self):
        component = make_component()
        component.leak_memory(500.0)
        component.begin_restart(now=100.0, duration=60.0)
        assert component.effective_capacity < 1.0
        assert not component.finish_restart_if_due(130.0)
        assert component.finish_restart_if_due(160.0)
        assert component.leaked_mb == 0.0
        assert component.restarting_until is None
        assert component.restarts == 1

    def test_rejuvenate_resets_all_soft_state(self):
        component = make_component()
        component.leak_memory(100.0)
        component.degrade_capacity(0.5)
        component.corrupt_state(1.0)
        component.rejuvenate()
        assert component.leaked_mb == 0.0
        assert component.degraded_fraction == 0.0
        assert component.corruption == 0.0


class TestErrors:
    def test_emit_error_goes_to_sink_with_clock(self):
        received = []
        component = make_component(error_sink=received.append)
        component.bind_clock(lambda: 42.0)
        component.emit_error(123, None, severity=2)
        assert len(received) == 1
        assert received[0].time == 42.0
        assert received[0].message_id == 123
        assert component.errors_emitted == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            make_component(capacity=0)
        with pytest.raises(ConfigurationError):
            make_component(service_time=-1.0)
