"""Nearest-rank percentile (the estimator behind Histogram's exact percentiles)."""

import pytest

from repro.obs.stats import percentile


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.0) == 7.0
        assert percentile([7.0], 0.5) == 7.0
        assert percentile([7.0], 1.0) == 7.0

    def test_endpoints(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 5.0

    def test_median_odd(self):
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_nearest_rank_rounds(self):
        # rank = round(f * (n-1)): 0.99 * 3 = 2.97 -> index 3.
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.99) == 4.0
        # 0.5 * 3 = 1.5 -> banker's rounding to index 2.
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 3.0

    def test_max_fraction_never_overruns_small_samples(self):
        # Nearest-rank with fraction 1.0 must index the last element, not
        # one past it, at every sample size.
        for n in range(1, 6):
            values = [float(i) for i in range(n)]
            assert percentile(values, 1.0) == values[-1]
            assert percentile(values, 0.99) <= values[-1]

    def test_two_samples_split_at_the_median(self):
        assert percentile([1.0, 9.0], 0.0) == 1.0
        assert percentile([1.0, 9.0], 0.49) == 1.0
        assert percentile([1.0, 9.0], 0.51) == 9.0
        assert percentile([1.0, 9.0], 1.0) == 9.0

    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.9, 0.99, 1.0])
    def test_result_is_a_member(self, fraction):
        values = sorted([5.0, 1.0, 9.0, 3.0, 7.0, 2.0])
        assert percentile(values, fraction) in values
