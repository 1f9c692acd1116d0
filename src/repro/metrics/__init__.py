"""Measurement layer: per-flow stats, fairness, time series, summaries."""

from repro.metrics.asciichart import line_chart
from repro.metrics.fairness import forwarding_load, jain_index
from repro.metrics.flowstats import FlowRecord, FlowStatsCollector
from repro.metrics.summary import format_table
from repro.metrics.timeseries import TimeSeries, bin_series

__all__ = [
    "FlowRecord",
    "FlowStatsCollector",
    "TimeSeries",
    "bin_series",
    "format_table",
    "forwarding_load",
    "jain_index",
    "line_chart",
]
