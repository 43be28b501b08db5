"""Integration tests: full scenario runs on small configurations."""

import math

import numpy as np
import pytest

from repro.experiments.config import paper_config
from repro.experiments.scenario import Scenario, run_scenario


def small_config(**overrides):
    defaults = dict(n_clients=4, duration=8.0, seed=3)
    defaults.update(overrides)
    return paper_config(**defaults)


@pytest.fixture(scope="module")
def udp_result():
    return run_scenario(small_config(protocol="udp"))


@pytest.fixture(scope="module")
def reno_result():
    return run_scenario(small_config(protocol="reno"))


class TestUdpScenario:
    def test_all_generated_packets_accounted_for(self, udp_result):
        generated = sum(f.app_packets for f in udp_result.per_flow)
        delivered = udp_result.throughput_packets
        dropped = udp_result.gateway_drops
        # UDP: generated = delivered + dropped + still in transit/queued.
        in_flight = generated - delivered - dropped
        assert 0 <= in_flight <= 10

    def test_cov_close_to_analytic(self, udp_result):
        assert udp_result.cov == pytest.approx(udp_result.analytic_cov, rel=0.3)

    def test_no_tcp_machinery(self, udp_result):
        assert udp_result.timeouts == 0
        assert udp_result.fast_retransmits == 0
        assert udp_result.dupacks == 0

    def test_offered_traffic_recorded(self, udp_result):
        offered = sum(f.app_packets for f in udp_result.per_flow)
        binned = udp_result.offered_bin_counts.sum()
        # The count series covers whole bins only, so it may miss the
        # final partial window.
        assert binned <= offered
        assert binned == pytest.approx(offered, rel=0.1)
        assert not math.isnan(udp_result.offered_cov)

    def test_modulation_report_attached(self, udp_result):
        report = udp_result.modulation
        assert report is not None
        # UDP barely modulates on an uncongested path.
        assert report.modulation_ratio == pytest.approx(1.0, abs=0.25)


class TestRenoScenario:
    def test_in_order_delivery_progress(self, reno_result):
        for flow in reno_result.per_flow:
            assert 0 < flow.delivered_unique <= flow.app_packets

    def test_conservation_at_gateway(self, reno_result):
        stats = reno_result
        assert stats.gateway_arrivals >= stats.gateway_drops
        # Everything delivered to the server crossed the gateway.
        assert stats.throughput_packets <= stats.gateway_arrivals

    def test_bin_counts_sum_matches_gateway_data_arrivals(self, reno_result):
        # The monitor counts DATA arrivals at the bottleneck port; the
        # binned series covers whole bins only (final partial window cut).
        binned = reno_result.bin_counts.sum()
        assert binned <= reno_result.gateway_arrivals
        assert binned == pytest.approx(reno_result.gateway_arrivals, rel=0.1)

    def test_result_fields_finite(self, reno_result):
        assert np.isfinite(reno_result.cov)
        assert np.isfinite(reno_result.loss_percent)
        assert 0.0 <= reno_result.utilization <= 1.05

    def test_per_flow_count(self, reno_result):
        assert len(reno_result.per_flow) == reno_result.config.n_clients


class TestDeterminism:
    def test_same_seed_identical_results(self):
        a = run_scenario(small_config(protocol="reno", seed=11))
        b = run_scenario(small_config(protocol="reno", seed=11))
        assert a.cov == b.cov
        assert a.throughput_packets == b.throughput_packets
        assert list(a.bin_counts) == list(b.bin_counts)
        assert a.events_executed == b.events_executed

    def test_different_seed_different_results(self):
        a = run_scenario(small_config(protocol="reno", seed=1))
        b = run_scenario(small_config(protocol="reno", seed=2))
        assert list(a.bin_counts) != list(b.bin_counts)

    def test_queue_discipline_does_not_change_offered_traffic(self):
        fifo = run_scenario(small_config(protocol="reno", queue="fifo"))
        red = run_scenario(small_config(protocol="reno", queue="red"))
        assert list(fifo.offered_bin_counts) == list(red.offered_bin_counts)


class TestTracing:
    def test_cwnd_traces_only_for_requested_flows(self):
        result = run_scenario(small_config(protocol="reno", obs_trace=("cwnd",)))
        assert set(result.cwnd_traces((0, 2))) == {0, 2}
        for trace in result.cwnd_traces((0, 2)).values():
            times = [t for t, _ in trace]
            assert times == sorted(times)
            assert all(1.0 <= v <= 20.0 for _, v in trace)

    def test_no_traces_by_default(self, reno_result):
        assert reno_result.cwnd_traces() == {}


class TestQueueDisciplines:
    @pytest.mark.parametrize("queue", ["fifo", "red", "ared"])
    def test_all_disciplines_run(self, queue):
        result = run_scenario(small_config(protocol="reno", queue=queue))
        assert result.throughput_packets > 0

    def test_red_scenario_uses_red_queue(self):
        from repro.net.red import REDQueue

        scenario = Scenario(small_config(protocol="reno", queue="red"))
        assert isinstance(scenario.network.bottleneck_queue, REDQueue)

    def test_ecn_scenario_marks_instead_of_dropping(self):
        # Saturate: many clients, ECN Reno over marking RED.
        result = run_scenario(
            small_config(protocol="reno_ecn", queue="red", n_clients=30, duration=20.0)
        )
        assert result.red_marks > 0


class TestProtocols:
    @pytest.mark.parametrize(
        "protocol", ["udp", "tahoe", "reno", "reno_delack", "newreno", "vegas"]
    )
    def test_every_protocol_delivers(self, protocol):
        result = run_scenario(small_config(protocol=protocol))
        assert result.throughput_packets > 0

    def test_delack_sends_fewer_acks(self):
        plain = Scenario(small_config(protocol="reno"))
        plain_result = plain.run()
        delack = Scenario(small_config(protocol="reno_delack"))
        delack_result = delack.run()
        plain_acks = sum(s.acks_sent for s in plain.sinks)
        delack_acks = sum(s.acks_sent for s in delack.sinks)
        assert delack_acks < plain_acks
        assert delack_result.throughput_packets > 0


class TestTrafficModels:
    def test_cbr_smoother_than_poisson(self):
        cbr = run_scenario(small_config(protocol="udp", traffic="cbr"))
        poisson = run_scenario(small_config(protocol="udp", traffic="poisson"))
        assert cbr.cov < poisson.cov

    def test_pareto_onoff_burstier_than_poisson(self):
        onoff = run_scenario(
            small_config(protocol="udp", traffic="pareto_onoff", duration=20.0)
        )
        poisson = run_scenario(
            small_config(protocol="udp", traffic="poisson", duration=20.0)
        )
        assert onoff.cov > poisson.cov

    def test_analytic_cov_only_for_poisson(self):
        onoff = run_scenario(small_config(protocol="udp", traffic="pareto_onoff"))
        assert math.isnan(onoff.analytic_cov)
        assert onoff.modulation is not None
        assert onoff.modulation.analytic_cov is None

    def test_unknown_traffic_rejected(self):
        with pytest.raises(ValueError):
            run_scenario(small_config(traffic="fractal"))


class TestWarmup:
    def test_warmup_discards_initial_bins(self):
        full = run_scenario(small_config(protocol="udp"))
        warm = run_scenario(small_config(protocol="udp", warmup=4.0))
        assert len(warm.bin_counts) < len(full.bin_counts)
        assert warm.offered_bin_counts.sum() < full.offered_bin_counts.sum()


class TestCongestedIntegration:
    def test_heavy_congestion_produces_losses_and_recoveries(self):
        result = run_scenario(
            paper_config(protocol="reno", n_clients=45, duration=25.0, seed=5)
        )
        assert result.loss_percent > 0.5
        assert result.timeouts > 0
        assert result.gateway_drops > 0
        assert result.utilization > 0.7

    def test_reno_burstier_than_udp_under_congestion(self):
        reno = run_scenario(
            paper_config(protocol="reno", n_clients=45, duration=25.0, seed=5)
        )
        udp = run_scenario(
            paper_config(protocol="udp", n_clients=45, duration=25.0, seed=5)
        )
        assert reno.cov > udp.cov
