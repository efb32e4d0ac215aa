import numpy as np
import pytest

from repro.core.controller import PFMController, default_repertoire
from repro.errors import ConfigurationError
from repro.simulator import Engine, RandomStreams
from repro.telecom import SCPConfig, SCPSystem


class ThresholdPredictor:
    """Deterministic stand-in: scores the first variable directly."""

    threshold = 0.5

    def score_samples(self, x):
        return np.atleast_2d(x)[:, 0]

    def set_threshold(self, threshold):
        self.threshold = threshold


@pytest.fixture()
def scp_and_controller():
    engine = Engine()
    system = SCPSystem(
        engine, RandomStreams(5), SCPConfig(enable_aging=False, n_containers=3)
    )
    controller = PFMController(
        system=system,
        predictor=ThresholdPredictor(),
        variables=["swap_activity", "cpu_utilization"],
        cooldown=60.0,
    )
    return system, controller


class TestControllerWiring:
    def test_unknown_variable_rejected(self):
        engine = Engine()
        system = SCPSystem(engine, RandomStreams(5), SCPConfig())
        with pytest.raises(ConfigurationError):
            PFMController(
                system=system,
                predictor=ThresholdPredictor(),
                variables=["no-such-gauge"],
            )

    def test_empty_variables_rejected(self):
        engine = Engine()
        system = SCPSystem(engine, RandomStreams(5), SCPConfig())
        with pytest.raises(ConfigurationError):
            PFMController(
                system=system, predictor=ThresholdPredictor(), variables=[]
            )

    def test_default_repertoire_covers_both_goals(self):
        from repro.actions import ActionCategory

        categories = {a.category for a in default_repertoire()}
        assert ActionCategory.DOWNTIME_AVOIDANCE in categories
        assert ActionCategory.DOWNTIME_MINIMIZATION in categories


class TestControllerBehaviour:
    def test_quiet_system_raises_no_warnings(self, scp_and_controller):
        system, controller = scp_and_controller
        system.start()
        controller.start()
        system.engine.run(until=1_800.0)
        assert controller.mea.warnings_raised == 0
        assert all(not w for _, _, w in controller.evaluations)

    def test_degradation_triggers_warning_and_action(self, scp_and_controller):
        system, controller = scp_and_controller
        controller.calibrate_confidence(np.array([0.5, 1.0]))
        system.start()
        controller.start()
        # Exhaust memory on container-0 -> swap_activity > threshold 0.5.
        def degrade():
            container = system.containers[0]
            container.leak_memory(0.72 * container.memory_mb)
        system.engine.schedule(300.0, degrade)
        system.engine.run(until=1_200.0)
        assert controller.mea.warnings_raised > 0
        acted = [w for w in controller.warnings if w.action]
        assert acted, "no countermeasure executed"
        assert acted[0].target == "container-0"

    def test_cooldown_limits_action_rate(self, scp_and_controller):
        system, controller = scp_and_controller
        controller.calibrate_confidence(np.array([0.5, 1.0]))
        system.start()
        controller.start()
        def degrade():
            container = system.containers[0]
            container.leaked_mb = 0.72 * container.memory_mb
        # Keep it degraded so every evaluation warns.
        for k in range(1, 40):
            system.engine.schedule(k * 30.0, degrade)
        system.engine.run(until=600.0)
        actions = [w for w in controller.warnings if w.action]
        # eval every 30s but cooldown 60s -> at most ~1 action per 60 s.
        assert len(actions) <= 600.0 / 60.0 + 1

    def test_confidence_calibration_maps_scores(self, scp_and_controller):
        _, controller = scp_and_controller
        controller.predictor.set_threshold(0.5)
        controller.calibrate_confidence(np.array([0.2, 0.5, 1.5]))
        assert controller._confidence(0.5) == pytest.approx(0.0)
        assert controller._confidence(1.5) == pytest.approx(1.0)
        assert controller._confidence(1.0) == pytest.approx(0.5)

    def test_outcome_matrix_keys(self, scp_and_controller):
        system, controller = scp_and_controller
        system.start()
        controller.start()
        system.engine.run(until=300.0)
        matrix = controller.outcome_matrix()
        assert set(matrix) == {"TP", "FP", "TN", "FN"}
        assert matrix["TN"]["count"] > 0  # quiet run -> negatives

    def test_suspect_is_most_degraded(self, scp_and_controller):
        system, controller = scp_and_controller
        system.containers[2].corrupt_state(1.5)
        assert controller._suspect() == "container-2"


class TestWarningEpisodeAccounting:
    def test_cooldown_still_records_episodes(self, scp_and_controller):
        """Regression: warnings raised during the action cooldown must be
        recorded as episodes (with action=None), otherwise outcome_matrix
        under-reports and maybe_restore_load sees stale warning times."""
        system, controller = scp_and_controller
        controller.calibrate_confidence(np.array([0.5, 1.0]))
        system.start()
        controller.start()

        def degrade():
            container = system.containers[0]
            container.leaked_mb = 0.72 * container.memory_mb

        for k in range(1, 40):
            system.engine.schedule(k * 30.0, degrade)
        system.engine.run(until=600.0)
        assert controller.mea.warnings_raised > 1
        # Every raised warning produced exactly one episode ...
        assert len(controller.warnings) == controller.mea.warnings_raised
        # ... and the cooldown-suppressed ones carry no action.
        suppressed = [w for w in controller.warnings if w.action is None]
        assert suppressed, "expected cooldown-suppressed episodes"

    def test_calibrate_confidence_rejects_empty_scores(self, scp_and_controller):
        _, controller = scp_and_controller
        with pytest.raises(ConfigurationError):
            controller.calibrate_confidence(np.array([]))


class FaultyPredictor(ThresholdPredictor):
    """ThresholdPredictor that can be told to raise."""

    def __init__(self):
        self.fail = False

    def score_samples(self, x):
        if self.fail:
            raise RuntimeError("model corrupted")
        return super().score_samples(x)


class SecondaryPredictor:
    """Fallback stand-in on a different score scale."""

    threshold = 10.0

    def score_samples(self, x):
        return np.atleast_2d(x)[:, 0] + 10.0


class TestResilienceWiring:
    def test_observation_tap_nan_is_sanitized(self, scp_and_controller):
        system, controller = scp_and_controller
        controller.observation_taps.append(
            lambda variable, value: float("nan")
            if variable == "cpu_utilization"
            else value
        )
        observation = controller._monitor()
        assert np.isfinite(observation).all()
        assert controller.sanitizer.events["cpu_utilization"]["nan"] == 1

    def test_predictor_faults_recorded_and_survived(self):
        engine = Engine()
        system = SCPSystem(
            engine, RandomStreams(5), SCPConfig(enable_aging=False, n_containers=3)
        )
        predictor = FaultyPredictor()
        controller = PFMController(
            system=system,
            predictor=predictor,
            variables=["swap_activity", "cpu_utilization"],
            predictor_fault_threshold=2,
        )
        predictor.fail = True
        result = controller.mea.step()  # must not raise
        assert not result.evaluation.warning
        assert controller.scoring.primary_faults == 1
        assert controller.resilience_summary()["predictor_faults"] == 1

    def test_fallback_predictor_takes_over(self):
        engine = Engine()
        system = SCPSystem(
            engine, RandomStreams(5), SCPConfig(enable_aging=False, n_containers=3)
        )
        predictor = FaultyPredictor()
        controller = PFMController(
            system=system,
            predictor=predictor,
            fallback_predictor=SecondaryPredictor(),
            variables=["swap_activity", "cpu_utilization"],
            predictor_fault_threshold=1,
        )
        predictor.fail = True
        evaluation = controller._evaluate(np.array([0.7, 0.0]))
        # Secondary: score 10.7 >= its threshold 10.0 -> warning, with the
        # fixed degraded-mode confidence.
        assert evaluation.warning
        assert evaluation.confidence == 0.7
        assert controller.scoring.using_fallback
        assert controller.resilience_summary()["fallback_scores"] == 1

    def test_slow_predictor_counts_as_fault(self):
        engine = Engine()
        system = SCPSystem(
            engine, RandomStreams(5), SCPConfig(enable_aging=False, n_containers=3)
        )
        predictor = ThresholdPredictor()
        predictor.simulated_latency = 10_000.0  # way past lead_time budget
        controller = PFMController(
            system=system,
            predictor=predictor,
            variables=["swap_activity", "cpu_utilization"],
            lead_time=300.0,
        )
        controller._evaluate(np.array([0.9, 0.0]))
        assert controller.scoring.primary_faults == 1

    def test_suspect_only_computed_on_warning(self, scp_and_controller):
        system, controller = scp_and_controller
        calls = []
        original = controller._suspect
        controller._suspect = lambda: calls.append(1) or original()
        quiet = controller._evaluate(np.array([0.0, 0.0]))
        assert quiet.target == ""
        assert calls == []
        loud = controller._evaluate(np.array([0.9, 0.0]))
        assert loud.target != ""
        assert calls == [1]


class TestLoadRestoration:
    def test_restores_after_quiet_period(self, scp_and_controller):
        system, controller = scp_and_controller
        system.set_admission_fraction(0.5)
        controller._throttled = True
        controller._last_warning_time = (
            system.engine.now - 2 * controller.lead_time - 1.0
        )
        controller.maybe_restore_load()
        assert system.admission_fraction == 1.0
        assert not controller._throttled

    def test_holds_while_warnings_recent(self, scp_and_controller):
        system, controller = scp_and_controller
        system.set_admission_fraction(0.5)
        controller._throttled = True
        controller._last_warning_time = system.engine.now
        controller.maybe_restore_load()
        assert system.admission_fraction == 0.5
        assert controller._throttled
