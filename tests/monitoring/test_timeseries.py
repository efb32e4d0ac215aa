import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.monitoring import TimeSeries, TimeSeriesStore


class TestTimeSeries:
    def make(self):
        series = TimeSeries("cpu")
        for t, v in [(0.0, 1.0), (10.0, 2.0), (20.0, 3.0), (30.0, 4.0)]:
            series.append(t, v)
        return series

    def test_append_and_len(self):
        assert len(self.make()) == 4

    def test_rejects_out_of_order(self):
        series = self.make()
        with pytest.raises(ConfigurationError):
            series.append(5.0, 9.9)

    def test_equal_times_allowed(self):
        series = self.make()
        series.append(30.0, 5.0)  # same timestamp is fine
        assert len(series) == 5

    def test_window_half_open(self):
        times, values = self.make().window(10.0, 30.0)
        np.testing.assert_array_equal(times, [10.0, 20.0])
        np.testing.assert_array_equal(values, [2.0, 3.0])

    def test_latest(self):
        np.testing.assert_array_equal(self.make().latest(2), [3.0, 4.0])
        np.testing.assert_array_equal(self.make().latest(10), [1.0, 2.0, 3.0, 4.0])

    def test_value_at_sample_and_hold(self):
        series = self.make()
        assert series.value_at(15.0) == 2.0
        assert series.value_at(10.0) == 2.0
        assert np.isnan(series.value_at(-1.0))

    def test_resample(self):
        grid = [5.0, 25.0, 100.0]
        np.testing.assert_array_equal(self.make().resample(grid), [1.0, 3.0, 4.0])

    def test_mean_over(self):
        assert self.make().mean_over(0.0, 30.0) == pytest.approx(2.0)
        assert np.isnan(self.make().mean_over(100.0, 200.0))


class TestTimeSeriesStore:
    def test_record_and_retrieve(self):
        store = TimeSeriesStore()
        store.record(0.0, "cpu", 0.5)
        store.record(1.0, "cpu", 0.6)
        assert len(store.series("cpu")) == 2

    def test_record_many(self):
        store = TimeSeriesStore()
        store.record_many(0.0, {"a": 1.0, "b": 2.0})
        assert store.variables == ["a", "b"]
        assert "a" in store and "zz" not in store

    def test_matrix_shape_and_values(self):
        store = TimeSeriesStore()
        for t in [0.0, 10.0, 20.0]:
            store.record_many(t, {"x": t, "y": -t})
        matrix = store.matrix(["x", "y"], [5.0, 15.0])
        np.testing.assert_array_equal(matrix, [[0.0, 0.0], [10.0, -10.0]])

    def test_matrix_rejects_unrecorded_variables(self):
        store = TimeSeriesStore()
        store.record(0.0, "x", 1.0)
        with pytest.raises(ConfigurationError, match="typo"):
            store.matrix(["x", "typo"], [0.0, 1.0])
        # A failed read leaves the store as it was.
        assert store.variables == ["x"]
        assert "typo" not in store

    def test_matrix_rejects_a_series_without_samples(self):
        store = TimeSeriesStore()
        store.record(0.0, "x", 1.0)
        store.series("empty")
        with pytest.raises(ConfigurationError, match="empty"):
            store.matrix(["x", "empty"], [0.0])

    def test_matrix_empty_variables(self):
        store = TimeSeriesStore()
        matrix = store.matrix([], [0.0, 1.0])
        assert matrix.shape == (2, 0)
