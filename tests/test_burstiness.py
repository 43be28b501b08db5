"""Unit tests for the multi-scale c.o.v. profile and its block sums."""

import numpy as np
import pytest

from repro.core.selfsimilar import aggregate_counts, multiscale_cov


class TestAggregation:
    def test_sums_adjacent_groups(self):
        assert list(aggregate_counts([1, 2, 3, 4, 5, 6], 2)) == [3, 7, 11]

    def test_discards_remainder(self):
        assert list(aggregate_counts([1, 2, 3, 4, 5], 2)) == [3, 7]

    def test_factor_one_identity(self):
        assert list(aggregate_counts([1, 2, 3], 1)) == [1, 2, 3]

    def test_factor_larger_than_series(self):
        assert aggregate_counts([1, 2], 5).size == 0

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            aggregate_counts([1], 0)


class TestMultiscale:
    def test_iid_counts_smooth_like_sqrt_m(self):
        counts = np.random.default_rng(2).poisson(20.0, size=4096)
        scales = multiscale_cov(counts, factors=(1, 4, 16))
        assert scales[4] == pytest.approx(scales[1] / 2.0, rel=0.15)
        assert scales[16] == pytest.approx(scales[1] / 4.0, rel=0.2)

    def test_skips_scales_with_too_few_groups(self):
        scales = multiscale_cov([1, 2, 3, 4], factors=(1, 2, 4))
        assert 4 not in scales
        assert 1 in scales
