"""Tests for replication statistics."""

import math

import pytest

from repro.analysis.stats import (
    ConfidenceInterval,
    mean_ci,
    proportion_variance_floor,
    sequential_halfwidth,
    summarize,
    t_critical,
)


class TestMeanCi:
    def test_mean(self):
        ci = mean_ci([1.0, 2.0, 3.0])
        assert ci.mean == pytest.approx(2.0)
        assert ci.n == 3

    def test_single_sample_zero_width(self):
        ci = mean_ci([5.0])
        assert ci.mean == 5.0
        assert ci.half_width == 0.0

    def test_empty_is_nan(self):
        ci = mean_ci([])
        assert math.isnan(ci.mean)
        assert ci.n == 0

    def test_nans_dropped(self):
        ci = mean_ci([1.0, float("nan"), 3.0])
        assert ci.mean == pytest.approx(2.0)
        assert ci.n == 2

    def test_t_quantile_matches_textbook(self):
        # n=5, 95 %: t = 2.776; samples with sd=1 → hw = 2.776/sqrt(5)
        vals = [-1.26491106, -0.63245553, 0.0, 0.63245553, 1.26491106]
        ci = mean_ci(vals, level=0.95)
        assert ci.half_width == pytest.approx(2.776 / math.sqrt(5), rel=1e-3)

    def test_bounds(self):
        ci = mean_ci([2.0, 4.0, 6.0])
        assert ci.low == pytest.approx(ci.mean - ci.half_width)
        assert ci.high == pytest.approx(ci.mean + ci.half_width)

    def test_str(self):
        assert "±" in str(mean_ci([1.0, 2.0]))

    def test_wider_at_higher_level(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert mean_ci(vals, 0.99).half_width > mean_ci(vals, 0.90).half_width

    def test_zero_variance_zero_width(self):
        # Identical replicates must give a degenerate interval, not NaN
        # (sd = 0 → sem = 0 → half-width exactly 0).
        ci = mean_ci([7.0] * 10)
        assert ci.mean == 7.0
        assert ci.half_width == 0.0
        assert ci.low == ci.high == 7.0

    def test_all_nan_is_empty(self):
        ci = mean_ci([float("nan")] * 4)
        assert math.isnan(ci.mean)
        assert math.isnan(ci.half_width)
        assert ci.n == 0

    def test_single_after_nan_drop(self):
        ci = mean_ci([float("nan"), 2.5, float("nan")])
        assert ci.mean == 2.5
        assert ci.half_width == 0.0
        assert ci.n == 1

    def test_bounds_degrade_gracefully(self):
        # NaN mean propagates into bounds rather than raising.
        ci = mean_ci([])
        assert math.isnan(ci.low) and math.isnan(ci.high)


class TestSummarize:
    def test_per_key(self):
        rows = [{"a": 1.0, "b": 10.0}, {"a": 3.0, "b": 20.0}]
        s = summarize(rows)
        assert s["a"].mean == pytest.approx(2.0)
        assert s["b"].mean == pytest.approx(15.0)

    def test_missing_keys_tolerated(self):
        rows = [{"a": 1.0}, {"a": 3.0, "b": 5.0}]
        s = summarize(rows)
        assert s["b"].n == 1

    def test_types(self):
        s = summarize([{"x": 1.0}])
        assert isinstance(s["x"], ConfidenceInterval)

    def test_nan_cells_dropped_per_key(self):
        rows = [{"a": float("nan"), "b": 1.0}, {"a": 4.0, "b": 3.0}]
        s = summarize(rows)
        assert s["a"].mean == 4.0
        assert s["a"].n == 1
        assert s["b"].n == 2

    def test_empty_rows(self):
        assert summarize([]) == {}


class TestSequentialHelpers:
    """Degenerate-input behaviour of the adaptive-stopping statistics.

    These pins matter: ``sequential_halfwidth`` decides whether a campaign
    stops buying replicates, so its edge cases must err conservative —
    and must *disagree* with the report-facing ``mean_ci`` at n = 1.
    """

    def test_t_critical_matches_textbook(self):
        assert t_critical(10, 0.95) == pytest.approx(2.262, abs=1e-3)

    def test_t_critical_needs_two_samples(self):
        with pytest.raises(ValueError, match="n ≥ 2"):
            t_critical(1)

    def test_t_critical_level_bounds(self):
        with pytest.raises(ValueError, match="level"):
            t_critical(5, 1.0)

    def test_halfwidth_empty_is_inf(self):
        assert math.isinf(sequential_halfwidth([]))

    def test_halfwidth_single_sample_is_inf(self):
        # A stopping rule must never conclude from one observation —
        # even though mean_ci reports 0.0 for the same input.
        assert math.isinf(sequential_halfwidth([1.0]))
        assert mean_ci([1.0]).half_width == 0.0

    def test_halfwidth_nans_dropped_before_count(self):
        assert math.isinf(sequential_halfwidth([float("nan"), 1.0]))

    def test_halfwidth_zero_variance_is_zero(self):
        assert sequential_halfwidth([2.0, 2.0, 2.0]) == 0.0

    def test_halfwidth_matches_mean_ci_when_regular(self):
        values = [1.0, 2.0, 3.0, 5.0]
        assert sequential_halfwidth(values) \
            == pytest.approx(mean_ci(values).half_width)

    def test_halfwidth_shrinks_with_n(self):
        narrow = sequential_halfwidth([1.0, 2.0] * 8)
        wide = sequential_halfwidth([1.0, 2.0])
        assert narrow < wide


class TestProportionFloor:
    """The binomial variance floor for packet proportions (PDR)."""

    def test_floor_is_binomial_variance_per_run(self):
        assert proportion_variance_floor(0.9, 100.0) == pytest.approx(0.0009)

    def test_floor_positive_when_every_packet_arrived(self):
        # p̄ is kept half a packet from 1: (1/2m)(1 − 1/2m)/m.
        m = 876.0
        assert proportion_variance_floor(1.0, m) \
            == pytest.approx((0.5 / m) * (1 - 0.5 / m) / m)
        assert proportion_variance_floor(0.0, m) \
            == pytest.approx(proportion_variance_floor(1.0, m))

    def test_no_packets_no_floor(self):
        assert proportion_variance_floor(0.5, 0.0) == 0.0

    def test_zero_variance_prefix_keeps_a_halfwidth(self):
        # Three equal PDRs of 1 − 1/876: the sample half-width is
        # round-off (3.4e-16) and would meet any target at n = 3.
        values = [1 - 1 / 876] * 3
        assert sequential_halfwidth(values) < 1e-15
        floored = sequential_halfwidth(values, trials=876.0)
        p = 1 - 1 / 876
        assert floored == pytest.approx(
            t_critical(3) * math.sqrt(p * (1 - p) / 876) / math.sqrt(3)
        )

    def test_floor_only_raises_the_sample_spread(self):
        values = [0.2, 0.9, 0.5, 0.7]
        assert sequential_halfwidth(values, trials=1000.0) \
            == sequential_halfwidth(values)
