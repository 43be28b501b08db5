"""Unit tests for the TCP pacing extension."""

import pytest

from repro.transport.reno import RenoSender
from repro.transport.transitions import TcpParams

from tests.helpers import TcpHarness


def make_harness(**overrides):
    params = TcpParams(
        initial_cwnd=overrides.pop("cwnd", 8.0),
        initial_ssthresh=64.0,
        pacing=True,
        **overrides,
    )
    return TcpHarness(RenoSender, {"params": params})


def prime_rtt(h, rtt=0.4):
    """Give the sender one RTT sample so pacing engages."""
    h.give_app_packets(1)
    h.advance(rtt)
    h.deliver_ack(0)


class TestPacing:
    def test_sends_immediately_before_first_rtt_sample(self):
        h = make_harness(cwnd=4.0)
        h.give_app_packets(4)
        # No sample yet: all four go out right away.
        assert len(h.sent_seqnos()) == 4

    def test_spreads_window_after_rtt_sample(self):
        h = make_harness(cwnd=8.0)
        prime_rtt(h, rtt=0.4)
        h.give_app_packets(8)
        immediately = len(h.sent_seqnos())
        # The first packet may go out at once; the rest wait for pace slots.
        assert immediately < 1 + 8
        h.advance(1.0)  # > one RTT: every pace slot has fired
        assert len(h.sent_seqnos()) == 1 + 8

    def test_pace_gap_is_srtt_over_window(self):
        h = make_harness(cwnd=8.0)
        prime_rtt(h, rtt=0.4)
        h.give_app_packets(8)
        h.advance(1.0)
        data_times = [
            (p.seqno, p.created_at) for p in h.transmitted if p.is_data and p.seqno >= 1
        ]
        gaps = [
            t2 - t1 for (_s1, t1), (_s2, t2) in zip(data_times, data_times[1:])
        ]
        expected = h.sender.srtt / h.sender.window()
        assert all(gap == pytest.approx(expected, rel=0.01) for gap in gaps)

    def test_timeout_cancels_pending_paced_sends(self):
        h = make_harness(cwnd=8.0, initial_rto=1.0, min_rto=1.0)
        prime_rtt(h, rtt=0.4)
        h.give_app_packets(20)
        # Let the retransmission timer fire with sends still pending.
        h.advance(10.0)
        assert h.sender.stats.timeouts >= 1
        # No duplicate first-transmissions: each seqno's first send is
        # unique and ordered.
        firsts = []
        seen = set()
        for p in h.transmitted:
            if p.is_data and p.seqno not in seen:
                seen.add(p.seqno)
                firsts.append(p.seqno)
        assert firsts == sorted(firsts)

    def test_pacing_off_by_default(self):
        params = TcpParams()
        assert params.pacing is False

    def test_scenario_label(self):
        from repro.experiments.config import paper_config

        config = paper_config(protocol="reno", pacing=True)
        assert config.label == "Reno/Paced"

    def test_paced_scenario_runs_and_delivers(self):
        from repro.experiments.config import paper_config
        from repro.experiments.scenario import run_scenario

        result = run_scenario(
            paper_config(protocol="reno", pacing=True, n_clients=4, duration=8.0)
        )
        assert result.throughput_packets > 0

    def test_paced_equals_plain_when_uncongested(self):
        from repro.experiments.config import paper_config
        from repro.experiments.scenario import run_scenario

        plain = run_scenario(
            paper_config(protocol="reno", n_clients=6, duration=15.0)
        )
        paced = run_scenario(
            paper_config(protocol="reno", pacing=True, n_clients=6, duration=15.0)
        )
        # App-limited flows barely queue at the pacer: identical delivery.
        assert paced.throughput_packets == plain.throughput_packets
        assert paced.loss_percent == plain.loss_percent == 0.0
