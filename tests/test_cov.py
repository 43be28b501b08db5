"""Unit tests for the coefficient-of-variation measure."""

import math

import numpy as np
import pytest

from repro.core.cov import (
    BinCounter,
    bin_counts,
    coefficient_of_variation,
)
from repro.net.monitor import ArrivalMonitor
from repro.net.packet import PacketFactory


class TestBinCounts:
    def test_basic_binning(self):
        counts = bin_counts([0.1, 0.9, 1.5, 3.2], bin_width=1.0, t_end=4.0)
        assert list(counts) == [2, 1, 0, 1]

    def test_events_outside_window_discarded(self):
        counts = bin_counts([-1.0, 0.5, 10.0], bin_width=1.0, t_start=0.0, t_end=2.0)
        assert counts.sum() == 1

    def test_t_end_inferred_from_last_event(self):
        counts = bin_counts([0.5, 2.5], bin_width=1.0)
        assert len(counts) == 3
        assert counts.sum() == 2

    def test_partial_trailing_bin_excluded(self):
        # Window [0, 2.5) with width 1 -> two whole bins only.
        counts = bin_counts([0.5, 1.5, 2.4], bin_width=1.0, t_end=2.5)
        assert len(counts) == 2
        assert counts.sum() == 2

    def test_nonzero_start(self):
        counts = bin_counts([5.5, 6.5], bin_width=1.0, t_start=5.0, t_end=7.0)
        assert list(counts) == [1, 1]

    def test_empty_input(self):
        assert bin_counts([], bin_width=1.0).size == 0

    def test_empty_window(self):
        assert bin_counts([1.0], bin_width=1.0, t_start=0.0, t_end=0.5).size == 0

    def test_invalid_bin_width(self):
        with pytest.raises(ValueError):
            bin_counts([1.0], bin_width=0.0)

    def test_t_end_before_t_start(self):
        with pytest.raises(ValueError):
            bin_counts([1.0], bin_width=1.0, t_start=2.0, t_end=1.0)

    def test_last_ulp_before_the_end_adds_no_bin(self):
        """16 s in bins of 1/3 s is 48 bins; an event one ulp before the
        end divides to 48.0, the bin past the last one, and must not
        grow the window to 49 (nor count in it)."""
        counts = bin_counts([15.999999999999998], 1 / 3, 0.0, 16.0)
        assert len(counts) == 48
        assert counts.sum() == 0

    def test_recorder_and_per_flow_bins_are_bin_counts(self):
        times = [0.0, 0.2, 5.5, 15.999999999999998]
        expected = bin_counts(times, 1 / 3, 0.0, 16.0).tolist()
        counter = BinCounter(1 / 3, 0.0, 16.0)
        counter.extend(times)
        assert counter.counts().tolist() == expected
        monitor = ArrivalMonitor(1 / 3, 0.0, 16.0)
        packet = PacketFactory().data(0, "a", "b", 1000, seqno=0, now=0.0)
        for time in times:
            monitor.on_packet(packet, time)
        assert monitor.counts().tolist() == expected
        assert monitor.flow_counts().tolist() == [expected]

    def test_conservation(self):
        times = np.random.default_rng(0).uniform(0, 10, size=500)
        counts = bin_counts(times, bin_width=0.5, t_end=10.0)
        assert counts.sum() == 500


class TestCov:
    def test_constant_counts_cov_zero(self):
        assert coefficient_of_variation([5, 5, 5, 5]) == 0.0

    def test_known_value(self):
        # counts [0, 2]: mean 1, std 1 -> cov 1.
        assert coefficient_of_variation([0, 2]) == pytest.approx(1.0)

    def test_all_zero_counts(self):
        assert coefficient_of_variation([0, 0, 0]) == 0.0

    def test_empty_is_nan(self):
        assert math.isnan(coefficient_of_variation([]))

    def test_ddof(self):
        sample = [1, 2, 3, 4]
        biased = coefficient_of_variation(sample, ddof=0)
        unbiased = coefficient_of_variation(sample, ddof=1)
        assert unbiased > biased

    def test_scale_invariance(self):
        counts = [1, 4, 2, 7, 3]
        scaled = [10 * c for c in counts]
        assert coefficient_of_variation(counts) == pytest.approx(
            coefficient_of_variation(scaled)
        )

    def test_poisson_sample_matches_theory(self):
        rng = np.random.default_rng(1)
        counts = rng.poisson(lam=25.0, size=20000)
        # Poisson c.o.v. = 1/sqrt(lambda) = 0.2.
        assert coefficient_of_variation(counts) == pytest.approx(0.2, rel=0.05)
