import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.telecom import Protocol, ServiceType, WorkloadConfig, WorkloadModel
from repro.telecom.workload import BLOCK_TICKS, DAY


def make_model(rng, **kwargs):
    return WorkloadModel(WorkloadConfig(**kwargs), rng)


class TestConfig:
    def test_rejects_bad_mix(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(mix={ServiceType.MOC: 0.5, ServiceType.SMS: 0.2,
                                ServiceType.GPRS: 0.2})

    def test_rejects_bad_amplitude(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(diurnal_amplitude=1.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigurationError):
            WorkloadConfig(base_rate=0.0)


class TestRateModulation:
    def test_peak_at_configured_hour(self, rng):
        model = make_model(rng, peak_hour=14.0, diurnal_amplitude=0.3)
        rate_peak = model.rate_at(14 * 3600.0)
        rate_trough = model.rate_at(2 * 3600.0)
        assert rate_peak > rate_trough
        assert rate_peak == pytest.approx(120.0 * 1.3)

    def test_weekend_factor(self, rng):
        model = make_model(rng, weekend_factor=0.5)
        weekday = model.rate_at(2 * DAY + 14 * 3600)  # Wednesday-ish
        weekend = model.rate_at(5 * DAY + 14 * 3600)  # Saturday
        assert weekend == pytest.approx(0.5 * weekday)

    def test_rate_always_positive(self, rng):
        model = make_model(rng, diurnal_amplitude=0.9)
        for t in np.linspace(0, 7 * DAY, 200):
            assert model.rate_at(float(t)) > 0


class TestArrivals:
    def test_mean_matches_rate(self, rng):
        model = make_model(rng, diurnal_amplitude=0.0)
        totals = [sum(model.arrivals(0.0, 10.0).values()) for _ in range(300)]
        assert np.mean(totals) == pytest.approx(1200.0, rel=0.05)

    def test_mix_respected(self, rng):
        model = make_model(rng, diurnal_amplitude=0.0)
        counts = {s: 0 for s in ServiceType}
        for _ in range(200):
            for s, n in model.arrivals(0.0, 10.0).items():
                counts[s] += n
        total = sum(counts.values())
        assert counts[ServiceType.MOC] / total == pytest.approx(0.5, abs=0.03)

    def test_demand_weights_services(self, rng):
        model = make_model(rng)
        light = {ServiceType.SMS: 10, ServiceType.MOC: 0, ServiceType.GPRS: 0}
        heavy = {ServiceType.SMS: 0, ServiceType.MOC: 10, ServiceType.GPRS: 0}
        assert model.demand(heavy) > model.demand(light)

    def test_protocol_split_conserves_and_adds_ip(self, rng):
        model = make_model(rng)
        counts = {ServiceType.MOC: 50, ServiceType.SMS: 30, ServiceType.GPRS: 20}
        split = model.protocol_split(counts)
        assert split[Protocol.SS7] == 80
        assert split[Protocol.RADIUS] == 20
        assert split[Protocol.IP] == 10  # 10% management share


def _twins(seed: int, **kwargs) -> tuple[WorkloadModel, WorkloadModel]:
    """Two models on generators seeded alike."""
    return (
        make_model(np.random.default_rng(seed), **kwargs),
        make_model(np.random.default_rng(seed), **kwargs),
    )


def _scalar_ticks(model: WorkloadModel, time: float, dt: float, ticks: int):
    counts = []
    for _ in range(ticks):
        counts.append(model.arrival_counts(time, dt))
        time = time + dt
    return counts


class TestBlockDraws:
    """``tick_counts`` draws ahead in blocks; a block must be exactly the
    scalar draws it replaces."""

    @given(
        seed=st.integers(0, 2**63 - 1),
        start=st.floats(0.0, 60 * DAY),
        dt=st.floats(1e-3, 3_600.0),
        ticks=st.integers(1, 300),
        base_rate=st.sampled_from([0.5, 120.0, 5_000.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_a_block_is_the_scalar_draws(self, seed, start, dt, ticks, base_rate):
        block, scalar = _twins(seed, base_rate=base_rate)
        times, counts = block._draw_block(start, dt, ticks)
        assert counts == _scalar_ticks(scalar, start, dt, ticks)
        assert block.rng.bit_generator.state == scalar.rng.bit_generator.state
        assert times[0] == start and len(times) == ticks
        for before, after in zip(times, times[1:]):
            assert after == before + dt

    @given(
        seed=st.integers(0, 2**63 - 1),
        dt=st.sampled_from([5.0, 0.1, 60.0]),
        ticks=st.integers(1, 3 * BLOCK_TICKS + 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_tick_counts_are_the_scalar_counts(self, seed, dt, ticks):
        block, scalar = _twins(seed)
        time, counts = 0.0, []
        for _ in range(ticks):
            counts.append(block.tick_counts(time, dt))
            time = time + dt
        assert counts == _scalar_ticks(scalar, 0.0, dt, ticks)

    def test_a_tick_off_the_schedule_raises(self, rng):
        model = make_model(rng)
        model.tick_counts(0.0, 5.0)
        with pytest.raises(SimulationError, match="off the arrival schedule"):
            model.tick_counts(10.0, 5.0)
        with pytest.raises(SimulationError, match="off the arrival schedule"):
            model.tick_counts(5.0, 10.0)
        assert len(model.tick_counts(5.0, 5.0)) == 3
