"""Unit tests for the Hurst-parameter estimators."""

import math

import numpy as np
import pytest

from repro.core.selfsimilar import (
    hurst_aggregate_variance,
    hurst_rescaled_range,
    variance_time_plot,
)


def fgn_like_series(hurst, n=8192, seed=0):
    """A cheap long-memory surrogate: fractional Gaussian noise via
    spectral synthesis (power-law spectrum ~ f^-(2H-1))."""
    rng = np.random.default_rng(seed)
    freqs = np.fft.rfftfreq(n)[1:]
    amplitude = freqs ** (-(2 * hurst - 1) / 2.0)
    phases = rng.uniform(0, 2 * np.pi, size=freqs.size)
    spectrum = np.concatenate([[0.0], amplitude * np.exp(1j * phases)])
    series = np.fft.irfft(spectrum, n=n)
    return (series - series.mean()) / series.std() + 10.0


class TestVarianceTime:
    def test_iid_slope_minus_one(self):
        counts = np.random.default_rng(1).poisson(20.0, size=8192)
        ms, variances = variance_time_plot(counts)
        slope = np.polyfit(np.log(ms), np.log(variances), 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.15)

    def test_skips_unusable_scales(self):
        ms, _variances = variance_time_plot([1.0, 2.0] * 8, factors=(1, 2, 64))
        assert 64 not in ms

    def test_empty_for_constant_series(self):
        ms, variances = variance_time_plot([5.0] * 128)
        assert ms.size == 0


class TestAggregateVarianceHurst:
    def test_iid_counts_near_half(self):
        counts = np.random.default_rng(2).poisson(20.0, size=8192)
        hurst = hurst_aggregate_variance(counts)
        assert 0.4 <= hurst <= 0.6

    def test_long_memory_series_higher(self):
        smooth = hurst_aggregate_variance(
            np.random.default_rng(3).normal(10, 1, size=8192)
        )
        rough = hurst_aggregate_variance(fgn_like_series(0.9, seed=3))
        assert rough > smooth + 0.15

    def test_short_series_nan(self):
        assert math.isnan(hurst_aggregate_variance([1.0, 2.0, 3.0]))

    def test_clamped_to_unit_interval(self):
        hurst = hurst_aggregate_variance(fgn_like_series(0.95, seed=4))
        assert 0.0 <= hurst <= 1.0


class TestRescaledRange:
    def test_iid_near_half(self):
        counts = np.random.default_rng(5).normal(10, 2, size=8192)
        hurst = hurst_rescaled_range(counts)
        # R/S has a known small-sample upward bias; accept a wide band.
        assert 0.4 <= hurst <= 0.7

    def test_long_memory_higher_than_iid(self):
        iid = hurst_rescaled_range(np.random.default_rng(6).normal(0, 1, 8192))
        lrd = hurst_rescaled_range(fgn_like_series(0.9, seed=6))
        assert lrd > iid

    def test_short_series_nan(self):
        assert math.isnan(hurst_rescaled_range([1.0] * 10))

    def test_ordering_between_estimators_consistent(self):
        series = fgn_like_series(0.85, seed=7)
        h_av = hurst_aggregate_variance(series)
        h_rs = hurst_rescaled_range(series)
        assert h_av > 0.6
        assert h_rs > 0.6


#: ``variance_time_plot``'s variances and both Hurst estimates on three
#: fixed series, as ``float.hex`` strings: any change to how the block
#: means are taken must reproduce them bit for bit.
PINNED_SERIES = {
    "poisson": (
        lambda: np.random.default_rng(11).poisson(20.0, size=4096),
        [
            "0x1.4b1ecdf000000p+4", "0x1.532a9be000000p+3", "0x1.567e37c000000p+2",
            "0x1.3ce36f8000000p+1", "0x1.4adddf0000000p+0", "0x1.6ee4be0000000p-1",
            "0x1.96667c0000000p-2",
        ],
        "0x1.09b9502cdfc04p-1",
        "0x1.1ee0bff3cea41p-1",
    ),
    "fgn": (
        lambda: fgn_like_series(0.85, n=4096, seed=8),
        [
            "0x1.0000000000000p+0", "0x1.8f1458fa00854p-1", "0x1.34387471ce2fep-1",
            "0x1.e4b843c6e8f84p-2", "0x1.7bce8ddedbbbbp-2", "0x1.1cbe561bd2a08p-2",
            "0x1.95870b3a6bd65p-3",
        ],
        "0x1.9e5696a605cb2p-1",
        "0x1.9c20ad898c6c6p-1",
    ),
    "ramp": (
        lambda: (np.arange(3000) % 37) * 0.7 + 3.0,
        [
            "0x1.bf914666242f8p+5", "0x1.9be6144a8fc62p+5", "0x1.69b2eb23de39ep+5",
            "0x1.15249da4cf660p+5", "0x1.249ebaba6df72p+4", "0x1.06c7155260d17p+0",
            "0x1.734a435319cdap-1",
        ],
        "0x1.c19f13b4b3e0cp-2",
        "0x1.f6a8957de2880p-2",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SERIES))
def test_estimates_pinned_bit_for_bit(name):
    make, variances, h_var, h_rs = PINNED_SERIES[name]
    series = make()
    ms, got = variance_time_plot(series)
    assert ms.tolist() == [1, 2, 4, 8, 16, 32, 64]
    assert [v.hex() for v in got.tolist()] == variances
    assert hurst_aggregate_variance(series).hex() == h_var
    assert hurst_rescaled_range(series).hex() == h_rs
