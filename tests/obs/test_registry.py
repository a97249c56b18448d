"""Unit tests for the fixed-bucket histogram behind ``repro obs summarize``."""

from __future__ import annotations

import math

import pytest

from repro.obs.registry import HISTOGRAM_BUCKETS, Histogram, ObsError


class TestInstruments:
    def test_histogram_exact_aggregates(self):
        hist = Histogram("sizes")
        for value in (4.0, 16.0, 1.0):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 21.0
        assert hist.min == 1.0
        assert hist.max == 16.0
        assert hist.mean == 7.0

    def test_histogram_mean_zero_when_empty(self):
        assert Histogram("h").mean == 0.0

    def test_histogram_bucket_edges(self):
        """Upper bounds are inclusive: 1.0 lands in bucket 0 (<=1), 1.5 in
        bucket 1 (<=2); anything beyond 2**30 lands in the +inf bucket."""
        hist = Histogram("h")
        hist.observe(1.0)
        hist.observe(1.5)
        hist.observe(float(1 << 32))
        assert hist.bucket_counts[0] == 1
        assert hist.bucket_counts[1] == 1
        assert hist.bucket_counts[-1] == 1
        assert HISTOGRAM_BUCKETS[-1] == math.inf

    def test_zero_and_negative_values_land_in_the_first_bucket(self):
        hist = Histogram("h")
        hist.observe(0.0)
        hist.observe(-3.0)
        assert hist.bucket_counts[0] == 2
        assert (hist.min, hist.max, hist.total) == (-3.0, 0.0, -3.0)

    def test_bucket_counts_sum_to_count(self):
        hist = Histogram("h")
        for value in (0.5, 3.0, 3.0, 700.0, 2.0**40):
            hist.observe(value)
        assert sum(hist.bucket_counts) == hist.count == 5


class TestQuantiles:
    def _hist(self, values):
        hist = Histogram("h")
        for value in values:
            hist.observe(value)
        return hist

    def test_single_observation_pins_every_quantile(self):
        assert [self._hist([8.0]).quantile(q) for q in (0.5, 0.95, 0.99)] == [
            8.0, 8.0, 8.0
        ]

    def test_empty_histogram_has_no_quantiles(self):
        assert self._hist([]).quantile(0.5) is None

    def test_q_outside_unit_interval_rejected(self):
        hist = self._hist([1.0])
        with pytest.raises(ObsError, match="quantile must be in"):
            hist.quantile(1.5)
        with pytest.raises(ObsError, match="quantile must be in"):
            hist.quantile(-0.1)

    def test_interpolates_inside_a_bucket(self):
        # 2.0 fills bucket (1,2]; 6.0 and 10.0 straddle (4,8] and (8,16].
        hist = self._hist([2.0, 6.0, 10.0])
        # rank 1.5 lands in the (4,8] bucket halfway through its one value.
        assert hist.quantile(0.5) == pytest.approx(6.0)

    def test_extremes_clamp_to_observed_min_max(self):
        hist = self._hist([2.0, 6.0, 10.0])
        assert hist.quantile(0.0) == 2.0
        assert hist.quantile(1.0) == 10.0
        # p99's bucket interpolation overshoots 10.0; the clamp pins it.
        assert hist.quantile(0.99) == 10.0

    def test_uniform_spread_estimate_is_bucket_bounded(self):
        # 128 values spread through (64,128]: the estimate may be off by
        # at most one bucket width, and the median must stay inside it.
        hist = self._hist([65.0 + i * 0.49 for i in range(128)])
        estimate = hist.quantile(0.5)
        assert 64.0 < estimate <= 128.0

    def test_quantiles_are_monotone_in_q(self):
        hist = self._hist([1.5, 3.0, 7.0, 7.5, 20.0, 90.0, 1000.0, 6.0, 2.2])
        estimates = [hist.quantile(i / 20) for i in range(21)]
        assert estimates == sorted(estimates)
        assert estimates[0] == 1.5 and estimates[-1] == 1000.0

    def test_overflow_bucket_reports_the_observed_max(self):
        # The +inf bucket has no upper edge to interpolate towards.
        hist = self._hist([2.0**31 + 5, 2.0**33])
        assert hist.quantile(0.5) == 2.0**33
