"""Append-only time series storage for monitoring data.

Samples arrive in time order (the collectors guarantee it); queries are
window extractions and grid resampling, which is exactly what the
symptom-based predictors (UBF, trend analysis, MSET) consume.
"""

from __future__ import annotations

import bisect
from typing import Iterable

import numpy as np

from repro.errors import ConfigurationError


class TimeSeries:
    """One variable's ``(time, value)`` samples, kept in time order."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []

    def append(self, time: float, value: float) -> None:
        times = self._times
        if times and time < times[-1]:
            raise ConfigurationError(
                f"samples must arrive in time order ({time} < {times[-1]})"
            )
        times.append(float(time))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values)

    def window(self, start: float, end: float) -> tuple[np.ndarray, np.ndarray]:
        """Samples with ``start <= t < end``."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_left(self._times, end)
        return np.asarray(self._times[lo:hi]), np.asarray(self._values[lo:hi])

    def latest(self, n: int = 1) -> np.ndarray:
        """The most recent ``n`` values (may be fewer early on)."""
        return np.asarray(self._values[-n:])

    def value_at(self, time: float) -> float:
        """Last value sampled at or before ``time`` (NaN if none)."""
        idx = bisect.bisect_right(self._times, time) - 1
        if idx < 0:
            return float("nan")
        return self._values[idx]

    def resample(self, grid: Iterable[float]) -> np.ndarray:
        """Sample-and-hold values at each grid point (NaN before first)."""
        return np.asarray([self.value_at(t) for t in grid])

    def mean_over(self, start: float, end: float) -> float:
        """Mean of samples in the window (NaN when empty)."""
        _, values = self.window(start, end)
        return float(values.mean()) if values.size else float("nan")


class TimeSeriesStore:
    """A named collection of :class:`TimeSeries`."""

    def __init__(self) -> None:
        self._series: dict[str, TimeSeries] = {}

    def record(self, time: float, variable: str, value: float) -> None:
        self.series(variable).append(time, value)

    def record_many(self, time: float, values: dict[str, float]) -> None:
        for variable, value in values.items():
            self.record(time, variable, value)

    def series(self, variable: str) -> TimeSeries:
        """The series for ``variable`` (created on first use)."""
        if variable not in self._series:
            self._series[variable] = TimeSeries(variable)
        return self._series[variable]

    @property
    def variables(self) -> list[str]:
        return sorted(self._series)

    def __contains__(self, variable: str) -> bool:
        return variable in self._series

    def matrix(
        self, variables: list[str], grid: Iterable[float]
    ) -> np.ndarray:
        """Sample-and-hold design matrix: rows = grid points, cols = variables.

        This is the feature matrix fed to symptom-based predictors.  A
        variable with no sample raises :class:`ConfigurationError` (a
        typo, or a gauge the run did not monitor) instead of reading as a
        NaN column; the store is left as it was.
        """
        missing = [v for v in variables if not len(self._series.get(v, ()))]
        if missing:
            raise ConfigurationError(f"variables never recorded: {missing}")
        grid = list(grid)
        columns = [self._series[v].resample(grid) for v in variables]
        return np.column_stack(columns) if columns else np.empty((len(grid), 0))

    def __repr__(self) -> str:
        return f"TimeSeriesStore(variables={self.variables})"
