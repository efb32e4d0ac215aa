"""Controller <-> arbitration wiring: binding, confidence, criticality."""

import numpy as np
import pytest

from repro.core.controller import PFMController
from repro.prediction import NoisyOrArbitrator, TrainingData
from repro.prediction.base import SymptomPredictor
from repro.simulator import Engine, RandomStreams
from repro.telecom import SCPConfig, SCPSystem


class ColumnScorer(SymptomPredictor):
    def __init__(self, column: int = 0):
        super().__init__()
        self.column = column

    def fit_samples(self, x, y):
        self._fitted = True
        return self

    def score_samples(self, x):
        return np.atleast_2d(np.asarray(x, dtype=float))[:, self.column]


class DelegatingProxy:
    """FlakyPredictorProxy-shaped wrapper: owns ``inner``, delegates reads."""

    def __init__(self, inner):
        self.inner = inner

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _fitted_arbitrator(rng):
    x = rng.normal(size=(300, 2))
    labels = x[:, 0] > 0.8
    data = TrainingData(x=x, y=x[:, 0], labels=labels)
    return NoisyOrArbitrator(
        [("a", ColumnScorer(0)), ("b", ColumnScorer(1))]
    ).fit(data)


def _system():
    engine = Engine()
    return SCPSystem(
        engine, RandomStreams(5), SCPConfig(enable_aging=False, n_containers=3)
    )


def _controller(predictor, **kwargs):
    return PFMController(
        system=_system(),
        predictor=predictor,
        variables=["swap_activity", "cpu_utilization"],
        cooldown=60.0,
        **kwargs,
    )


class TestArbitratorBinding:
    def test_direct_predictor_is_bound(self, rng):
        arbitrator = _fitted_arbitrator(rng)
        controller = _controller(arbitrator)
        assert controller._arbitrator is arbitrator
        assert arbitrator.live_window == controller._live_windows

    def test_binding_walks_through_delegating_proxies(self, rng):
        """A FlakyPredictorProxy-style wrapper must not eat the binding."""
        arbitrator = _fitted_arbitrator(rng)
        controller = _controller(DelegatingProxy(arbitrator))
        assert controller._arbitrator is arbitrator
        assert arbitrator.live_window == controller._live_windows

    def test_plain_predictor_leaves_no_binding(self):
        controller = _controller(ColumnScorer())
        assert controller._arbitrator is None

    def test_live_windows_shape(self, rng):
        arbitrator = _fitted_arbitrator(rng)
        controller = _controller(arbitrator)
        windows = controller._live_windows(3)
        assert len(windows) == 3
        assert all(w.origin <= controller.system.engine.now for w in windows)


class TestProbabilityConfidence:
    def test_fused_scores_skip_recalibration(self, rng):
        controller = _controller(_fitted_arbitrator(rng))
        # Even after calibrate_confidence, fused probabilities pass through.
        controller.calibrate_confidence(np.linspace(0.0, 1.0, 50))
        assert controller._confidence(0.73) == pytest.approx(0.73)
        assert controller._confidence(1.7) == 1.0
        assert controller._confidence(-0.2) == 0.0

    def test_plain_scores_still_scale(self):
        controller = _controller(ColumnScorer())
        controller.calibrate_confidence(np.array([0.5, 1.0]))
        assert controller._confidence(0.5) == pytest.approx(0.0)
        assert controller._confidence(1.0) == pytest.approx(1.0)


class TestCriticalityActuation:
    def _degraded_run(self, **kwargs):
        controller = _controller(ColumnScorer(), **kwargs)
        system = controller.system
        controller.calibrate_confidence(np.array([0.5, 1.0]))
        system.start()
        controller.start()

        def degrade():
            container = system.containers[0]
            container.leak_memory(0.72 * container.memory_mb)

        system.engine.schedule(300.0, degrade)
        system.engine.run(until=1_200.0)
        return controller

    def test_critical_target_is_acted_on(self):
        controller = self._degraded_run()
        assert controller.mea.warnings_raised > 0
        assert any(w.action for w in controller.warnings)

    def test_expendable_target_is_left_alone(self):
        """Same warnings, but utility never clears the bar at k≈0."""
        controller = self._degraded_run(default_criticality=0.01)
        assert controller.mea.warnings_raised > 0
        assert not any(w.action for w in controller.warnings)

    def test_per_target_criticality_overrides_default(self):
        controller = self._degraded_run(
            default_criticality=0.01,
            target_criticality={"container-0": 1.0},
        )
        assert any(w.action for w in controller.warnings)
