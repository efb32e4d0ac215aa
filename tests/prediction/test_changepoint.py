import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.prediction.changepoint import CUSUM


def shifted_stream(rng, n_before=200, n_after=200, shift=3.0):
    before = rng.standard_normal(n_before)
    after = shift + rng.standard_normal(n_after)
    return np.concatenate([before, after])


class TestCUSUM:
    def test_detects_upward_shift(self, rng):
        detector = CUSUM(threshold=8.0, drift=0.5)
        stream = shifted_stream(rng)
        alarms = [i for i, v in enumerate(stream) if detector.update(float(v))]
        assert alarms, "shift never detected"
        assert alarms[0] >= 200  # not before the change
        assert alarms[0] < 260  # reasonably quickly after

    def test_detects_downward_shift(self, rng):
        detector = CUSUM(threshold=8.0, drift=0.5)
        stream = -shifted_stream(rng)
        alarms = [i for i, v in enumerate(stream) if detector.update(float(v))]
        assert alarms and alarms[0] >= 200

    def test_quiet_stream_rarely_alarms(self, rng):
        detector = CUSUM(threshold=10.0, drift=0.5)
        alarms = sum(
            detector.update(float(v)) for v in rng.standard_normal(2000)
        )
        assert alarms <= 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CUSUM(threshold=0.0)
        with pytest.raises(ConfigurationError):
            CUSUM(drift=-1.0)

