"""Unit tests for the UDP sender and the ECN-capable Reno sender."""

import pytest

from repro.transport.ecn import EcnRenoSender
from repro.transport.transitions import TcpParams
from repro.transport.udp import UdpSender

from tests.helpers import CaptureNode, TcpHarness
from repro.net.packet import PacketFactory
from repro.sim.engine import Simulator


class TestUdpSender:
    def make(self):
        sim = Simulator()
        node = CaptureNode(sim)
        factory = PacketFactory()
        sender = UdpSender(sim, node, 0, "server", factory, packet_size=500)
        return sim, node, sender

    def test_sends_immediately_one_per_app_packet(self):
        _sim, node, sender = self.make()
        sender.app_arrival(3)
        assert node.data_seqnos() == [0, 1, 2]
        assert sender.packets_sent == 3

    def test_packet_size_respected(self):
        _sim, node, sender = self.make()
        sender.app_arrival(1)
        assert node.transmitted[0].size == 500

    def test_no_congestion_response(self):
        _sim, node, sender = self.make()
        sender.app_arrival(100)
        assert len(node.transmitted) == 100  # nothing held back


class TestEcnReno:
    def make(self, **overrides):
        params = TcpParams(
            initial_cwnd=overrides.pop("cwnd", 8.0),
            initial_ssthresh=64.0,
            **overrides,
        )
        return TcpHarness(EcnRenoSender, {"params": params})

    def test_marks_packets_ecn_capable(self):
        h = self.make()
        h.give_app_packets(5)
        assert all(p.ecn_capable for p in h.transmitted)

    def test_halves_on_echo(self):
        h = self.make(cwnd=8.0)
        h.give_app_packets(100)
        h.deliver_ack(0, ecn_echo=True)
        # window was 8 -> ssthresh 4, cwnd deflated to ssthresh (the
        # slow-start +1 from the new ACK lands afterwards).
        assert h.sender.ssthresh == pytest.approx(4.0)
        assert h.sender.cwnd <= 5.0
        assert h.sender.stats.ecn_responses == 1

    def test_at_most_one_response_per_rtt(self):
        h = self.make(cwnd=8.0)
        h.give_app_packets(100)
        h.advance(0.5)
        h.deliver_ack(0, ecn_echo=True)
        h.deliver_ack(1, ecn_echo=True)  # same instant: ignored
        assert h.sender.stats.ecn_responses == 1

    def test_responds_again_after_an_rtt(self):
        h = self.make(cwnd=8.0)
        h.give_app_packets(1000)
        h.advance(0.5)
        h.deliver_ack(0, ecn_echo=True)
        h.advance(h.sender.rtt_estimate() + 0.1)
        h.deliver_ack(1, ecn_echo=True)
        assert h.sender.stats.ecn_responses == 2

    def test_no_retransmission_on_echo(self):
        h = self.make(cwnd=4.0)
        h.give_app_packets(100)
        sent_before = len(h.transmitted)
        h.deliver_ack(0, ecn_echo=True)
        # Only new data may flow; nothing is retransmitted.
        assert all(not p.is_retransmit for p in h.transmitted[sent_before:])

    def test_protocol_name(self):
        assert EcnRenoSender.protocol_name == "reno-ecn"

