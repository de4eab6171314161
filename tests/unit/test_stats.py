"""Unit tests for statistics helpers."""

import pytest

from repro.util.stats import (
    mad,
    max_over_mean,
    mean_rate_hz,
    median,
    percentile_sorted,
    robust_outlier,
)


class TestMeanRate:
    def test_basic(self):
        # 80 spikes from 10 neurons over 1000 ticks (1 s) = 8 Hz.
        assert mean_rate_hz(80, 10, 1000) == pytest.approx(8.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mean_rate_hz(1, 0, 100)
        with pytest.raises(ValueError):
            mean_rate_hz(1, 10, 0)


class TestMedian:
    """Exact values — the robust helpers avoid float summation entirely."""

    def test_odd(self):
        assert median([3.0, 1.0, 2.0]) == 2.0

    def test_even_is_exact_midpoint(self):
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5

    def test_single(self):
        assert median([7.0]) == 7.0

    def test_unsorted_input_not_mutated(self):
        values = [5.0, 1.0, 3.0]
        median(values)
        assert values == [5.0, 1.0, 3.0]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            median([])


class TestMad:
    def test_known_value(self):
        # median = 3; |x - 3| = [2, 1, 0, 1, 2] -> median 1.
        assert mad([1.0, 2.0, 3.0, 4.0, 5.0]) == 1.0

    def test_identical_values_zero(self):
        assert mad([4.0, 4.0, 4.0]) == 0.0

    def test_even_count(self):
        # median = 2.5; deviations [1.5, 0.5, 0.5, 1.5] -> median 1.0.
        assert mad([1.0, 2.0, 3.0, 4.0]) == 1.0


class TestRobustOutlier:
    BASE = [1.0, 1.01, 0.99, 1.0, 1.02]  # median 1.0, MAD 0.01

    def test_within_mad_band_passes(self):
        # threshold = max(1 + 4*1.4826*0.01, 1.15) = 1.15.
        assert not robust_outlier(1.10, self.BASE)

    def test_beyond_threshold_fails(self):
        assert robust_outlier(1.20, self.BASE)

    def test_improvement_never_flags(self):
        assert not robust_outlier(0.5, self.BASE)

    def test_wide_mad_raises_threshold(self):
        noisy = [1.0, 1.5, 0.6, 1.1, 0.9]  # median 1.0, MAD 0.1
        # threshold = max(1 + 4*1.4826*0.1, 1.15) = 1.59304.
        assert not robust_outlier(1.5, noisy)
        assert robust_outlier(1.6, noisy)

    def test_short_history_uses_relative_tolerance(self):
        assert not robust_outlier(1.14, [1.0], rel_tol=0.15)
        assert robust_outlier(1.16, [1.0], rel_tol=0.15)

    def test_zero_mad_still_tolerates_rel_tol(self):
        flat = [2.0, 2.0, 2.0, 2.0]
        assert not robust_outlier(2.2, flat, rel_tol=0.15)
        assert robust_outlier(2.4, flat, rel_tol=0.15)


class TestPercentileSmallN:
    """Nearest-rank behaviour at the degenerate sizes fleet shards hit.

    A freshly-spun-up shard may have exactly one or two completed jobs
    when a report is cut; the percentiles must stay exact observed
    values, not interpolations.
    """

    def test_n1_every_q_returns_the_value(self):
        for q in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert percentile_sorted([7.5], q) == 7.5

    def test_n2_splits_at_the_median_rank(self):
        # rank = ceil(q/100 * 2): q <= 50 -> first value, q > 50 -> second.
        assert percentile_sorted([10.0, 20.0], 50.0) == 10.0
        assert percentile_sorted([10.0, 20.0], 50.1) == 20.0
        assert percentile_sorted([10.0, 20.0], 95.0) == 20.0
        assert percentile_sorted([10.0, 20.0], 99.0) == 20.0

    def test_all_equal_samples_collapse(self):
        values = [3.0] * 5
        for q in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert percentile_sorted(values, q) == 3.0

    def test_five_values_hit_every_rank(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        got = [percentile_sorted(values, q) for q in (0.0, 25.0, 50.0, 95.0, 100.0)]
        assert got == [1.0, 2.0, 3.0, 5.0, 5.0]

    def test_sorted_variant_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError, match="empty"):
            percentile_sorted([], 50.0)
        with pytest.raises(ValueError, match="outside"):
            percentile_sorted([1.0], 101.0)


class TestMaxOverMean:
    def test_balanced(self):
        assert max_over_mean([3, 3, 3]) == 1.0

    def test_known_ratio(self):
        # mean 2, max 4.
        assert max_over_mean([0, 2, 4]) == 2.0

    def test_empty_and_zero_are_neutral(self):
        assert max_over_mean([]) == 1.0
        assert max_over_mean([0, 0]) == 1.0

    def test_matches_profiling_semantics(self):
        # Same value the per-rank profiler's ImbalanceSummary reports.
        assert max_over_mean([10, 20, 30]) == pytest.approx(1.5)
