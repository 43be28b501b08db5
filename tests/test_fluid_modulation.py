"""Unit tests for the fluid approximations and the modulation report."""

import math

import pytest

from repro.core.modulation import modulation_report
from repro.core.theory import (
    reno_fluid_throughput,
    vegas_equilibrium_queue,
    vegas_equilibrium_window,
)


class TestRenoFluid:
    def test_square_root_law(self):
        # Halving the loss probability scales throughput by sqrt(2).
        t1 = reno_fluid_throughput(0.4, 0.02)
        t2 = reno_fluid_throughput(0.4, 0.01)
        assert t2 / t1 == pytest.approx(math.sqrt(2.0))

    def test_inverse_in_rtt(self):
        assert reno_fluid_throughput(0.2, 0.01) == pytest.approx(
            2 * reno_fluid_throughput(0.4, 0.01)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            reno_fluid_throughput(0.0, 0.01)
        with pytest.raises(ValueError):
            reno_fluid_throughput(0.4, 0.0)
        with pytest.raises(ValueError):
            reno_fluid_throughput(0.4, 1.5)



class TestVegasFluid:
    def test_window_bounds(self):
        low, high = vegas_equilibrium_window(6.25, 0.404, alpha=1.0, beta=3.0)
        assert low == pytest.approx(6.25 * 0.404 + 1.0)
        assert high == pytest.approx(6.25 * 0.404 + 3.0)
        assert low < high

    def test_queue_bounds_paper_example(self):
        # Section 3.4: 40 streams with (1, 3) keep 40..120 packets queued.
        assert vegas_equilibrium_queue(40) == (40.0, 120.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            vegas_equilibrium_window(0.0, 0.4)
        with pytest.raises(ValueError):
            vegas_equilibrium_queue(0)
        with pytest.raises(ValueError):
            vegas_equilibrium_window(1.0, 0.4, alpha=3.0, beta=1.0)


class TestModulationReport:
    def test_transparent_transport_ratio_one(self):
        counts = [3, 4, 5, 4, 3, 5]
        report = modulation_report(counts, counts)
        assert report.modulation_ratio == pytest.approx(1.0)
        assert report.excess_percent == pytest.approx(0.0)

    def test_burstier_output_ratio_above_one(self):
        offered = [4, 4, 4, 4]
        transported = [0, 8, 0, 8]
        report = modulation_report(offered, transported)
        assert report.modulation_ratio == float("inf")

    def test_excess_over_analytic(self):
        report = modulation_report([3, 5, 4, 4], [2, 6, 4, 4], analytic_cov=0.1)
        assert report.excess_over_analytic_percent == pytest.approx(
            (report.transported_cov / 0.1 - 1.0) * 100.0
        )

    def test_describe_includes_analytic_when_present(self):
        report = modulation_report([3, 5], [2, 6], analytic_cov=0.25)
        text = report.describe()
        assert "analytic" in text
        assert "modulation ratio" in text

    def test_describe_without_analytic(self):
        report = modulation_report([3, 5], [2, 6])
        assert "analytic" not in report.describe()
