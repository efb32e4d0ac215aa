"""Monitoring infrastructure (the "M" of the MEA cycle).

The monitoring layer produces two kinds of data:

- periodic numeric samples of system variables (symptom monitoring;
  SAR-style) -- :class:`~repro.monitoring.timeseries.TimeSeriesStore` fed
  by :class:`~repro.monitoring.collectors.PeriodicCollector`, which reads
  a list of :class:`~repro.monitoring.collectors.Gauge` objects,
- event-driven error reports (detected error reporting) --
  :class:`~repro.monitoring.logbook.ErrorLog`.
"""

from repro.monitoring.collectors import Gauge, PeriodicCollector, sar_gauges
from repro.monitoring.logbook import ErrorLog, FailureLog
from repro.monitoring.timeseries import TimeSeries, TimeSeriesStore

__all__ = [
    "Gauge",
    "PeriodicCollector",
    "sar_gauges",
    "ErrorLog",
    "FailureLog",
    "TimeSeries",
    "TimeSeriesStore",
]
