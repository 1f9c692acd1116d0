"""Coverage for metrics/timeseries.py binning and asciichart determinism.

The re-binning helper backs ``repro-trace timeline``; its edge cases
(empty input, degenerate ranges, right-edge samples, NaN means) decide
whether charts are trustworthy, so they get explicit tests here.
"""

from __future__ import annotations

import math

import pytest

from repro.metrics.asciichart import line_chart
from repro.metrics.timeseries import bin_series


class TestBinSeries:
    def test_event_counting(self):
        centers, counts = bin_series(
            [0.1, 0.2, 1.5, 2.9], None, bin_s=1.0, t0=0.0, t1=3.0, agg="count"
        )
        assert centers == [0.5, 1.5, 2.5]
        assert counts == [2.0, 1.0, 1.0]

    def test_mean_aggregation(self):
        _, binned = bin_series(
            [0.0, 0.5, 1.5], [2.0, 4.0, 10.0], bin_s=1.0, t0=0.0, t1=2.0
        )
        assert binned == [3.0, 10.0]

    def test_sum_aggregation(self):
        _, binned = bin_series(
            [0.0, 0.5, 1.5], [2.0, 4.0, 10.0],
            bin_s=1.0, t0=0.0, t1=2.0, agg="sum",
        )
        assert binned == [6.0, 10.0]

    def test_empty_input(self):
        assert bin_series([], None) == ([], [])
        assert bin_series([], []) == ([], [])

    def test_empty_bins_nan_for_mean_zero_for_count(self):
        _, mean = bin_series([0.5], [1.0], bin_s=1.0, t0=0.0, t1=3.0)
        assert mean[0] == 1.0 and all(math.isnan(v) for v in mean[1:])
        _, counts = bin_series([0.5], None, bin_s=1.0, t0=0.0, t1=3.0,
                               agg="count")
        assert counts == [1.0, 0.0, 0.0]

    def test_sample_exactly_at_t1_lands_in_last_bin(self):
        # Closed right edge, matching the engine's run(until=...) events.
        _, counts = bin_series([3.0], None, bin_s=1.0, t0=0.0, t1=3.0,
                               agg="count")
        assert counts == [0.0, 0.0, 1.0]

    def test_samples_outside_range_ignored(self):
        _, counts = bin_series(
            [-1.0, 0.5, 9.9], None, bin_s=1.0, t0=0.0, t1=1.0, agg="count"
        )
        assert counts == [1.0]

    def test_degenerate_range_single_bin(self):
        centers, counts = bin_series([2.0, 2.0], None, bin_s=1.0, agg="count")
        assert len(centers) == 1
        assert counts == [2.0]

    def test_unsorted_times(self):
        _, counts = bin_series([2.5, 0.5, 1.5], None, bin_s=1.0,
                               t0=0.0, t1=3.0, agg="count")
        assert counts == [1.0, 1.0, 1.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            bin_series([1.0], None, bin_s=0.0)
        with pytest.raises(ValueError):
            bin_series([1.0], None, agg="median")
        with pytest.raises(ValueError):
            bin_series([1.0, 2.0], [1.0])  # length mismatch


class TestChartDeterminism:
    def test_same_input_same_output(self):
        x = [float(i) for i in range(30)]
        series = {
            "a": [math.sin(v / 3) for v in x],
            "b": [math.cos(v / 3) for v in x],
        }
        first = line_chart(x, series, width=40, height=10, title="det")
        for _ in range(3):
            assert line_chart(x, series, width=40, height=10, title="det") \
                == first

    def test_binned_trace_chart_renders(self):
        centers, counts = bin_series(
            [0.1 * i for i in range(100)], None, bin_s=1.0, agg="count"
        )
        out = line_chart(centers, {"events": counts}, width=30, height=6)
        assert "o=events" in out

    def test_all_nan_series_rejected(self):
        with pytest.raises(ValueError):
            line_chart([0, 1], {"s": [math.nan, math.nan]}, width=20, height=6)
