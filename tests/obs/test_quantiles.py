"""The shared quantile arithmetic and its two call sites."""

import math

import pytest

from repro.obs import quantiles
from repro.sim.stats import LatencyRecorder


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(quantiles.percentile([], 50))
        assert math.isnan(quantiles.percentile_sorted([], 99))

    def test_single_sample(self):
        assert quantiles.percentile([7.0], 0) == 7.0
        assert quantiles.percentile([7.0], 50) == 7.0
        assert quantiles.percentile([7.0], 100) == 7.0

    def test_endpoints(self):
        samples = [5.0, 1.0, 3.0]
        assert quantiles.percentile(samples, 0) == 1.0
        assert quantiles.percentile(samples, 100) == 5.0

    def test_linear_interpolation(self):
        # rank = 0.25 * (len-1): p25 of [10, 20] sits a quarter between.
        assert quantiles.percentile([20.0, 10.0], 25) == pytest.approx(12.5)
        # p50 of four samples interpolates between the middle two.
        assert quantiles.percentile([1.0, 2.0, 3.0, 4.0],
                                    50) == pytest.approx(2.5)

    def test_unsorted_input(self):
        assert quantiles.percentile([9.0, 1.0, 5.0],
                                    50) == quantiles.percentile(
                                        [1.0, 5.0, 9.0], 50)


class TestMean:
    def test_empty_is_nan(self):
        assert math.isnan(quantiles.mean([]))

    def test_mean(self):
        assert quantiles.mean([1.0, 2.0, 6.0]) == pytest.approx(3.0)


class TestHistogramBuckets:
    def test_empty(self):
        assert quantiles.fixed_width_histogram([]) == []

    def test_counts_cover_all_samples(self):
        samples = [0.1 * i for i in range(100)]
        buckets = quantiles.fixed_width_histogram(samples, max_buckets=8)
        assert sum(count for _, count in buckets) == len(samples)
        # the max is the closed upper edge of the last bucket, never a
        # bucket of its own — the cap is honored exactly
        assert len(buckets) <= 8

    def test_max_lands_in_last_bucket(self):
        buckets = quantiles.fixed_width_histogram([0.0, 4.0],
                                                  bucket_width=1.0)
        assert buckets == [(0.0, 1), (3.0, 1)]

    def test_single_sample(self):
        assert quantiles.fixed_width_histogram([7.0]) == [(7.0, 1)]

    def test_two_samples(self):
        buckets = quantiles.fixed_width_histogram([1.0, 2.0], max_buckets=4)
        assert sum(count for _, count in buckets) == 2
        assert len(buckets) <= 4

    def test_all_equal_samples(self):
        buckets = quantiles.fixed_width_histogram([3.0] * 5)
        assert buckets == [(3.0, 5)]

    def test_explicit_width(self):
        buckets = quantiles.fixed_width_histogram([0.0, 0.5, 1.5],
                                                  bucket_width=1.0)
        assert buckets == [(0.0, 2), (1.0, 1)]


class TestPercentileWeighted:
    def test_zero_weight_is_nan(self):
        assert math.isnan(quantiles.percentile_weighted([], 50))
        assert math.isnan(quantiles.percentile_weighted([(5.0, 0)], 50))

    def test_single_unit_weight(self):
        assert quantiles.percentile_weighted([(7.0, 1)], 0) == 7.0
        assert quantiles.percentile_weighted([(7.0, 1)], 100) == 7.0

    def test_matches_expanded_multiset(self):
        items = [(1.0, 3), (2.5, 1), (4.0, 5), (9.0, 2)]
        expanded = sorted(value for value, weight in items
                          for _ in range(weight))
        for p in (0, 10, 25, 50, 75, 90, 99, 100):
            assert quantiles.percentile_weighted(items, p) == \
                pytest.approx(quantiles.percentile_sorted(expanded, p))

    def test_p100_is_last_value(self):
        assert quantiles.percentile_weighted([(1.0, 4), (8.0, 2)],
                                             100) == 8.0

    def test_all_equal_values(self):
        assert quantiles.percentile_weighted([(5.0, 9)], 50) == 5.0

    def test_skips_zero_weight_entries(self):
        items = [(1.0, 2), (3.0, 0), (5.0, 2)]
        expanded = [1.0, 1.0, 5.0, 5.0]
        assert quantiles.percentile_weighted(items, 50) == \
            quantiles.percentile_sorted(expanded, 50)


class TestDistributionSummary:
    def test_empty(self):
        summary = quantiles.distribution_summary([])
        assert summary["count"] == 0
        assert math.isnan(summary["mean"])
        assert math.isnan(summary["p50"])
        assert math.isnan(summary["p99"])
        assert math.isnan(summary["max"])

    def test_values(self):
        summary = quantiles.distribution_summary([4.0, 2.0])
        assert summary == {"count": 2, "mean": 3.0, "p50": 3.0,
                           "p99": pytest.approx(3.98), "max": 4.0}


class TestCallSiteParity:
    """The latency recorder must delegate to the shared arithmetic."""

    def test_empty_percentiles_are_nan(self):
        recorder = LatencyRecorder()
        assert math.isnan(recorder.percentile(99))
        assert math.isnan(recorder.mean())

    def test_identical_quantiles(self):
        samples = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(0.0, sample)
        for p in (0, 25, 50, 90, 99, 100):
            assert recorder.percentile(p) == quantiles.percentile(samples, p)
        assert recorder.mean() == pytest.approx(quantiles.mean(samples))

    def test_recorder_histogram_uses_shared_buckets(self):
        recorder = LatencyRecorder()
        for sample in (0.0, 0.5, 1.5):
            recorder.record(0.0, sample)
        assert recorder.histogram(bucket_width_us=1.0) == \
            quantiles.fixed_width_histogram([0.0, 0.5, 1.5], bucket_width=1.0)
