"""Unit tests for TCP Tahoe and TCP NewReno."""

import pytest

from repro.transport.newreno import NewRenoSender
from repro.transport.tahoe import TahoeSender
from repro.transport.transitions import TcpParams

from tests.helpers import TcpHarness


def make_harness(cls, cwnd=8.0, **overrides):
    params = TcpParams(
        initial_cwnd=cwnd,
        initial_ssthresh=overrides.pop("ssthresh", 64.0),
        **overrides,
    )
    return TcpHarness(cls, {"params": params})


def three_dupacks(h, ackno=0):
    h.deliver_ack(ackno)
    for _ in range(3):
        h.deliver_ack(ackno)


class TestTahoe:
    def test_fast_retransmit_restarts_slow_start(self):
        h = make_harness(TahoeSender)
        h.give_app_packets(100)
        three_dupacks(h)
        assert h.sender.cwnd == 1.0
        # The first (new) ACK grew cwnd 8 -> 9 in slow start; half of 9.
        assert h.sender.ssthresh == 4.5
        assert h.sender.stats.fast_retransmits == 1
        # The hole (packet 1) was retransmitted.
        assert h.sent_seqnos().count(1) == 2

    def test_no_inflation_on_further_dupacks(self):
        h = make_harness(TahoeSender)
        h.give_app_packets(100)
        three_dupacks(h)
        cwnd = h.sender.cwnd
        h.deliver_ack(0)
        assert h.sender.cwnd == cwnd

    def test_timeout_same_as_reno(self):
        h = make_harness(TahoeSender, initial_rto=1.0)
        h.give_app_packets(100)
        h.advance(1.5)
        assert h.sender.cwnd == 1.0
        assert h.sender.stats.timeouts == 1

    def test_recovers_via_slow_start(self):
        h = make_harness(TahoeSender)
        h.give_app_packets(100)
        three_dupacks(h)
        h.deliver_ack(h.sender.maxseq)
        assert h.sender.cwnd == 2.0  # slow start doubling resumed

    def test_protocol_name(self):
        assert TahoeSender.protocol_name == "tahoe"


class TestNewReno:
    def test_partial_ack_stays_in_recovery_and_retransmits_next_hole(self):
        h = make_harness(NewRenoSender)
        h.give_app_packets(100)
        three_dupacks(h)
        assert h.sender.in_recovery
        recover = h.sender._recover
        h.deliver_ack(3)  # partial: 3 < recover
        assert h.sender.in_recovery
        assert 3 < recover
        # Next hole (packet 4) retransmitted immediately.
        assert h.sent_seqnos().count(4) == 2

    def test_full_ack_exits_recovery(self):
        h = make_harness(NewRenoSender)
        h.give_app_packets(100)
        three_dupacks(h)
        ssthresh = h.sender.ssthresh
        h.deliver_ack(h.sender.maxseq)
        assert not h.sender.in_recovery
        assert h.sender.cwnd == pytest.approx(ssthresh)

    def test_partial_ack_deflates_by_progress(self):
        h = make_harness(NewRenoSender)
        h.give_app_packets(100)
        three_dupacks(h)
        cwnd = h.sender.cwnd
        h.deliver_ack(3)  # progress of 3 packets
        assert h.sender.cwnd == pytest.approx(cwnd - 3.0 + 1.0)

    def test_multiple_partial_acks_recover_multiple_holes(self):
        h = make_harness(NewRenoSender)
        h.give_app_packets(100)
        three_dupacks(h)
        h.deliver_ack(2)
        h.deliver_ack(5)
        assert h.sender.in_recovery
        assert h.sent_seqnos().count(3) == 2
        assert h.sent_seqnos().count(6) == 2

    def test_normal_growth_outside_recovery(self):
        h = make_harness(NewRenoSender, cwnd=2.0)
        h.give_app_packets(100)
        h.deliver_ack(0)
        assert h.sender.cwnd == 3.0  # slow start

    def test_protocol_name(self):
        assert NewRenoSender.protocol_name == "newreno"
