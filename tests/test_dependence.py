"""Unit tests for the cross-stream dependence diagnostics."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.cov import coefficient_of_variation
from repro.core.dependence import (
    autocorrelation,
    dependence_report,
    dispersion_index,
    pairwise_correlations,
)
from repro.core.theory import cov_from_dispersion


def independent_counts(n_flows=10, n_bins=2000, seed=0):
    rng = np.random.default_rng(seed)
    return rng.poisson(5.0, size=(n_flows, n_bins)).astype(float)


def synchronized_counts(n_flows=10, n_bins=2000, seed=0):
    rng = np.random.default_rng(seed)
    shared = rng.poisson(5.0, size=n_bins)
    noise = rng.poisson(1.0, size=(n_flows, n_bins))
    return (shared[None, :] + noise).astype(float)


class TestPairwiseCorrelations:
    def test_independent_streams_near_zero(self):
        correlations = pairwise_correlations(independent_counts())
        assert abs(correlations.mean()) < 0.02

    def test_synchronized_streams_strongly_positive(self):
        correlations = pairwise_correlations(synchronized_counts())
        assert correlations.mean() > 0.5

    def test_perfectly_coupled_pair(self):
        counts = np.array([[1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0]])
        assert pairwise_correlations(counts)[0] == pytest.approx(1.0)

    def test_anticorrelated_pair(self):
        counts = np.array([[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        assert pairwise_correlations(counts)[0] == pytest.approx(-1.0)

    def test_zero_variance_flows_skipped(self):
        counts = np.array([[5.0, 5.0, 5.0], [1.0, 2.0, 3.0], [3.0, 2.0, 1.0]])
        correlations = pairwise_correlations(counts)
        assert correlations.size == 1  # only the two active flows pair up

    def test_requires_two_flows(self):
        with pytest.raises(ValueError):
            pairwise_correlations(np.ones((1, 10)))

    def test_mean_helper_zero_when_no_active_pairs(self):
        counts = np.array([[5.0, 5.0], [7.0, 7.0]])
        assert dependence_report(counts).mean_correlation == 0.0


class TestAutocorrelation:
    def test_lag_zero_is_one(self):
        acf = autocorrelation([1.0, 5.0, 2.0, 8.0], max_lag=2)
        assert acf[0] == pytest.approx(1.0)

    def test_white_noise_near_zero(self):
        series = np.random.default_rng(1).normal(size=5000)
        acf = autocorrelation(series, max_lag=5)
        assert np.all(np.abs(acf[1:]) < 0.05)

    def test_alternating_series_negative_lag1(self):
        acf = autocorrelation([1.0, -1.0] * 100, max_lag=1)
        assert acf[1] < -0.9

    def test_constant_series(self):
        acf = autocorrelation([3.0] * 10, max_lag=3)
        assert acf[0] == 1.0
        assert np.all(acf[1:] == 0.0)

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            autocorrelation([1.0])

    def test_max_lag_clamped_to_length(self):
        acf = autocorrelation([1.0, 2.0, 3.0], max_lag=50)
        assert acf.size == 3  # lags 0..2


class TestDependenceReport:
    def test_independent_ratio_near_one(self):
        report = dependence_report(independent_counts())
        assert report.variance_excess_ratio == pytest.approx(1.0, abs=0.15)
        assert abs(report.mean_correlation) < 0.02

    def test_synchronized_ratio_far_above_one(self):
        report = dependence_report(synchronized_counts())
        assert report.variance_excess_ratio > 3.0
        assert report.fraction_positive > 0.9

    def test_describe_mentions_key_numbers(self):
        text = dependence_report(independent_counts()).describe()
        assert "pairwise corr" in text
        assert "var(sum)/sum(var)" in text

    def test_zero_variance_flows(self):
        counts = np.ones((3, 10))
        report = dependence_report(counts)
        assert report.variance_excess_ratio == 1.0


def flow_rows(times_by_flow, bin_width, t_start, t_end):
    """Per-flow gateway counts, as ``ArrivalMonitor`` keeps them, of
    DATA arrivals at the given times."""
    from repro.net.monitor import ArrivalMonitor
    from repro.net.packet import PacketFactory

    monitor = ArrivalMonitor(bin_width, t_start, t_end)
    factory = PacketFactory()
    for flow, times in times_by_flow.items():
        packet = factory.data(flow, "a", "b", 1000, seqno=0, now=0.0)
        for time in times:
            monitor.on_packet(packet, time)
    return monitor.flow_counts()


class TestBinFlowTimes:
    """The per-flow rows that ``ScenarioResult.dependence()`` reads."""

    def test_bins_per_flow(self):
        rows = flow_rows({0: [0.1, 0.2, 1.5], 2: [0.9]}, 1.0, 0.0, 2.0)
        assert rows.tolist() == [[2, 1], [0, 0], [1, 0]]

    def test_flows_sorted_by_id(self, monkeypatch):
        import repro.experiments.results as results
        from repro.experiments.config import paper_config
        from repro.experiments.scenario import run_scenario

        result = run_scenario(
            paper_config(protocol="reno", n_clients=2, duration=2.0)
        )
        rows = flow_rows({5: [0.1], 1: [0.1, 0.2]}, 1.0, 0.0, 1.0)
        stacked = []
        monkeypatch.setattr(results, "dependence_report", stacked.append)
        dataclasses.replace(result, per_flow_bin_counts=rows).dependence()
        assert stacked[0].tolist() == [[0], [2], [0], [0], [0], [1]]  # row = flow id

    def test_empty_flow_all_zero(self):
        # Flow 0's one arrival is past the window's last whole bin.
        rows = flow_rows({0: [1.2], 1: [0.5]}, 1.0, 0.0, 1.5)
        assert rows[0].tolist() == [0]
        assert rows[1].tolist() == [1]

    def test_validation(self):
        with pytest.raises(ValueError):
            flow_rows({0: [0.1]}, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            flow_rows({0: [0.1]}, 1.0, 1.0, 0.5)


#: Arbitrary per-flow count matrices: 2-6 flows, 2-40 bins (the report
#: takes an autocorrelation, which needs two).
_COUNT_MATRICES = st.integers(min_value=2, max_value=6).flatmap(
    lambda flows: st.integers(min_value=2, max_value=40).flatmap(
        lambda bins: st.lists(
            st.lists(
                st.integers(min_value=0, max_value=60), min_size=bins, max_size=bins
            ),
            min_size=flows,
            max_size=flows,
        )
    )
)


class TestDispersionIndex:
    def test_poisson_flows_near_one(self):
        assert dispersion_index(independent_counts()) == pytest.approx(1.0, abs=0.05)

    def test_constant_flows_are_zero(self):
        assert dispersion_index([[3, 3, 3], [1, 1, 1]]) == 0.0

    def test_silent_flows_have_no_index(self):
        assert math.isnan(dispersion_index(np.zeros((3, 5))))

    @settings(max_examples=200, deadline=None)
    @given(rows=_COUNT_MATRICES)
    def test_cov_is_the_product_of_dispersion_and_coupling(self, rows):
        """c.o.v.^2 = D * R / mu on any count matrix with traffic."""
        counts = np.array(rows, dtype=float)
        aggregate = counts.sum(axis=0)
        assume(aggregate.mean() > 0)
        split = cov_from_dispersion(
            dispersion_index(counts),
            dependence_report(counts).variance_excess_ratio,
            float(aggregate.mean()),
        )
        assert split == pytest.approx(
            coefficient_of_variation(aggregate), rel=1e-9, abs=1e-12
        )

    def test_poisson_flows_recover_the_closed_form(self):
        """D = R = 1 is the Poisson aggregate's 1/sqrt(mu)."""
        assert cov_from_dispersion(1.0, 1.0, 25.0) == pytest.approx(0.2)


class TestScenarioIntegration:
    def test_scenario_dependence_report(self):
        from repro.experiments.config import paper_config
        from repro.experiments.scenario import run_scenario

        result = run_scenario(paper_config(protocol="reno", n_clients=4, duration=8.0))
        report = result.dependence()
        assert report is not None
        assert report.n_flows == 4

    def test_one_bin_window_has_no_report(self, capsys):
        """A 0.5-s window holds one whole 0.404-s bin, which validate()
        accepts; the autocorrelation needs two, so there is no report
        and ``repro-tcp dependence`` says "not enough" and exits 1
        instead of raising from ``autocorrelation``."""
        from repro.experiments.cli import main
        from repro.experiments.config import paper_config
        from repro.experiments.scenario import run_scenario

        result = run_scenario(paper_config(n_clients=3, duration=0.5))
        assert len(result.bin_counts) == 1 and len(result.per_flow_bin_counts) == 3
        assert result.dependence() is None
        assert main(["dependence", "--clients", "3", "--duration", "0.5"]) == 1
        assert "not enough" in capsys.readouterr().out

    def test_dependence_none_without_recording(self):
        """The fluid limit has no flows, so no per-flow counts."""
        from repro.experiments.config import paper_config
        from repro.experiments.scenario import run_scenario

        result = run_scenario(
            paper_config(backend="fluid", n_clients=4, duration=5.0)
        )
        assert result.per_flow_bin_counts is None
        assert result.dependence() is None
