"""Unit tests for TCP Reno fast retransmit / fast recovery."""

import pytest

from repro.transport.reno import RenoSender
from repro.transport.transitions import TcpParams

from tests.helpers import TcpHarness


def make_harness(cwnd=8.0, **overrides):
    params = TcpParams(initial_cwnd=cwnd, initial_ssthresh=overrides.pop("ssthresh", 2.0), **overrides)
    return TcpHarness(RenoSender, {"params": params})


def trigger_fast_retransmit(h):
    """Three duplicate ACKs for packet 0 (packets 1+ arrived, 0 lost...
    actually: ack 0 then three dups means packet 1 lost)."""
    h.deliver_ack(0)
    for _ in range(3):
        h.deliver_ack(0)


class TestFastRetransmit:
    def test_third_dupack_triggers_retransmission(self):
        h = make_harness()
        h.give_app_packets(100)
        before = h.sent_seqnos().count(1)
        trigger_fast_retransmit(h)
        assert h.sent_seqnos().count(1) == before + 1
        assert h.sender.stats.fast_retransmits == 1

    def test_two_dupacks_do_not_retransmit(self):
        h = make_harness()
        h.give_app_packets(100)
        h.deliver_ack(0)
        h.deliver_ack(0)
        h.deliver_ack(0)
        assert h.sender.stats.fast_retransmits == 0

    def test_window_halved_plus_three(self):
        h = make_harness(cwnd=8.0)
        h.give_app_packets(100)
        trigger_fast_retransmit(h)
        # At the 3rd dupack the effective window was 8 (cwnd never
        # adjusted since ssthresh=2 -> CA adds 1/8 on the first new ack).
        assert h.sender.ssthresh == pytest.approx(h.sender.cwnd - 3.0)
        assert h.sender.in_recovery

    def test_inflation_per_additional_dupack(self):
        h = make_harness(cwnd=8.0)
        h.give_app_packets(100)
        trigger_fast_retransmit(h)
        inflated = h.sender.cwnd
        h.deliver_ack(0)  # 4th dupack
        assert h.sender.cwnd == pytest.approx(inflated + 1.0)

    def test_inflation_allows_new_data(self):
        h = make_harness(cwnd=4.0, advertised_window=100)
        h.give_app_packets(100)
        trigger_fast_retransmit(h)
        highest = h.sender.maxseq
        # Several more dupacks inflate the window enough for new packets.
        for _ in range(6):
            h.deliver_ack(0)
        assert h.sender.maxseq > highest

    def test_new_ack_deflates_and_exits_recovery(self):
        h = make_harness(cwnd=8.0)
        h.give_app_packets(100)
        trigger_fast_retransmit(h)
        ssthresh = h.sender.ssthresh
        h.deliver_ack(h.sender.maxseq)  # full recovery ACK
        assert not h.sender.in_recovery
        assert h.sender.cwnd == pytest.approx(ssthresh)

    def test_classic_reno_exits_recovery_on_partial_ack(self):
        h = make_harness(cwnd=8.0)
        h.give_app_packets(100)
        trigger_fast_retransmit(h)
        h.deliver_ack(2)  # partial: below maxseq at loss detection
        assert not h.sender.in_recovery

    def test_no_second_fast_retransmit_in_same_recovery(self):
        h = make_harness(cwnd=8.0)
        h.give_app_packets(100)
        trigger_fast_retransmit(h)
        assert h.sender.stats.fast_retransmits == 1
        h.deliver_ack(0)
        h.deliver_ack(0)
        h.deliver_ack(0)
        assert h.sender.stats.fast_retransmits == 1

    def test_timeout_during_recovery_resets_state(self):
        h = make_harness(cwnd=8.0, initial_rto=1.0, min_rto=1.0)
        h.give_app_packets(100)
        trigger_fast_retransmit(h)
        h.advance(2.0)  # retransmission timer expires in recovery
        assert not h.sender.in_recovery
        assert h.sender.cwnd == 1.0
        assert h.sender.stats.timeouts == 1


class TestRenoWindowDynamics:
    def test_slow_start_then_avoidance_after_loss(self):
        h = make_harness(cwnd=8.0, ssthresh=64.0)
        h.give_app_packets(1000)
        trigger_fast_retransmit(h)
        h.deliver_ack(h.sender.maxseq)  # exit recovery
        cwnd = h.sender.cwnd
        assert cwnd < 8.0  # halved
        h.give_app_packets(100)
        h.deliver_ack(h.sender.maxseq)
        # Above ssthresh now: linear growth.
        assert h.sender.cwnd == pytest.approx(cwnd + 1.0 / cwnd)

    def test_protocol_name(self):
        assert RenoSender.protocol_name == "reno"
