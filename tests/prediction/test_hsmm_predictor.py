import numpy as np
import pytest

from repro.errors import ConfigurationError, NotFittedError
from repro.monitoring.records import EventSequence
from repro.prediction.hsmm import HSMMPredictor
from repro.prediction.hsmm.predictor import hmm_ablation_predictor


def synthetic_sequences(rng, n_per_class=15):
    """Failure windows: bursts of 'symptom' ids 100-102 accelerating toward
    the end plus background noise; non-failure: sparse noise 500-503."""
    failure, nonfailure = [], []
    for _ in range(n_per_class):
        times, ids = [0.0], [int(rng.integers(500, 504))]
        t = 0.0
        # Background noise every ~120 s.
        while t < 1500.0:
            t += rng.exponential(120.0)
            times.append(t)
            ids.append(int(rng.integers(500, 504)))
        # Symptom burst in the last third.
        t = 1000.0
        while t < 1700.0:
            t += rng.exponential(40.0)
            times.append(t)
            ids.append(int(rng.integers(100, 103)))
        order = np.argsort(times)
        failure.append(
            EventSequence(
                times=np.asarray(times)[order],
                message_ids=np.asarray(ids)[order],
                label=True,
            )
        )
    for _ in range(n_per_class):
        times, ids = [], []
        t = 0.0
        while t < 1700.0:
            t += rng.exponential(120.0)
            times.append(t)
            ids.append(int(rng.integers(500, 504)))
        nonfailure.append(
            EventSequence(times=times, message_ids=ids, label=False)
        )
    return failure, nonfailure


@pytest.fixture(scope="module")
def sequence_data():
    rng = np.random.default_rng(77)
    train = synthetic_sequences(rng, n_per_class=15)
    test = synthetic_sequences(rng, n_per_class=8)
    return train, test


@pytest.fixture(scope="module")
def fitted(sequence_data):
    (train_f, train_n), _ = sequence_data
    predictor = HSMMPredictor(
        n_states_failure=4, n_states_nonfailure=3, max_iter=8, seed=1
    )
    predictor.fit_sequences(train_f, train_n)
    return predictor


class TestClassification:
    def test_separates_classes(self, sequence_data, fitted):
        _, (test_f, test_n) = sequence_data
        f_scores = fitted.score_sequences(test_f)
        n_scores = fitted.score_sequences(test_n)
        assert f_scores.mean() > n_scores.mean()

    def test_auc_high_on_separable_data(self, sequence_data, fitted):
        _, (test_f, test_n) = sequence_data
        assert fitted.auc(test_f, test_n) > 0.9

    def test_bayes_decision_at_zero_threshold(self, sequence_data, fitted):
        _, (test_f, test_n) = sequence_data
        assert fitted.threshold == 0.0
        table = fitted.evaluate(test_f, test_n)
        assert table.recall > 0.5

    def test_sequence_likelihoods_exposed(self, sequence_data, fitted):
        _, (test_f, _) = sequence_data
        ll_f, ll_n = fitted.sequence_likelihoods(test_f[0])
        assert ll_f > ll_n  # failure model prefers failure sequences
        assert ll_f < 0 and ll_n < 0


class TestValidation:
    def test_fit_requires_both_classes(self):
        predictor = HSMMPredictor()
        with pytest.raises(ConfigurationError):
            predictor.fit_sequences([], [])

    def test_score_before_fit(self):
        predictor = HSMMPredictor()
        with pytest.raises(NotFittedError):
            predictor.score_sequence(
                EventSequence(times=[0.0], message_ids=[1])
            )

    def test_rejects_zero_states(self):
        with pytest.raises(ConfigurationError):
            HSMMPredictor(n_states_failure=0)

    def test_info_category(self):
        assert HSMMPredictor.info.category == (
            "detected-error-reporting/pattern-recognition"
        )


class TestAblation:
    def test_hmm_ablation_is_geometric_duration_hsmm(self, sequence_data):
        (train_f, train_n), (test_f, test_n) = sequence_data
        ablation = hmm_ablation_predictor(
            n_states_failure=4, n_states_nonfailure=3, max_iter=8, seed=1
        )
        ablation.fit_sequences(train_f, train_n)
        # Still a working classifier...
        assert ablation.auc(test_f, test_n) > 0.7
        # ...whose duration model is geometric.
        from repro.markov.distributions import GeometricDuration

        assert all(
            isinstance(d, GeometricDuration)
            for d in ablation.failure_model.durations
        )

    def test_prior_ratio_reflects_class_balance(self, rng):
        failure, nonfailure = synthetic_sequences(rng, n_per_class=6)
        predictor = HSMMPredictor(max_iter=3, seed=0)
        predictor.fit_sequences(failure, nonfailure[:3])
        assert predictor.log_prior_ratio > 0  # failures more frequent


class TestBatchScoring:
    def test_batch_matches_per_sequence_scores(self, sequence_data, fitted):
        _, (test_f, test_n) = sequence_data
        batch = fitted.score_sequences(test_f + test_n)
        singles = [fitted.score_sequence(s) for s in test_f + test_n]
        np.testing.assert_allclose(batch, singles, atol=1e-10)

    def test_batch_empty(self, fitted):
        assert fitted.score_sequences([]).size == 0

    def test_reference_strategy_agrees_with_vectorized(self, sequence_data):
        (train_f, train_n), (test_f, test_n) = sequence_data
        fast = HSMMPredictor(
            n_states_failure=3, n_states_nonfailure=2, max_iter=4, seed=2
        )
        slow = HSMMPredictor(
            n_states_failure=3, n_states_nonfailure=2, max_iter=4, seed=2,
            strategy="reference",
        )
        fast.fit_sequences(train_f[:6], train_n[:6])
        slow.fit_sequences(train_f[:6], train_n[:6])
        np.testing.assert_allclose(
            fast.score_sequences(test_f[:4] + test_n[:4]),
            slow.score_sequences(test_f[:4] + test_n[:4]),
            atol=1e-8,
        )

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ConfigurationError):
            HSMMPredictor(strategy="magic")

    def test_ablation_predictor_models_are_picklable(self, sequence_data):
        import pickle

        (train_f, train_n), _ = sequence_data
        ablation = hmm_ablation_predictor(
            n_states_failure=2, n_states_nonfailure=2, max_iter=2, seed=1
        )
        ablation.fit_sequences(train_f[:4], train_n[:4])
        pickle.loads(pickle.dumps(ablation.failure_model))
