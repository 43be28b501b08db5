"""Unit tests for the TCP and UDP sinks."""


from repro.net.packet import PacketFactory
from repro.sim.engine import Simulator
from repro.transport.sink import TcpSink, UdpSink

from tests.helpers import CaptureNode


def make_sink(delayed_ack=False, ack_delay=0.1):
    sim = Simulator()
    node = CaptureNode(sim, "server")
    factory = PacketFactory()
    sink = TcpSink(
        sim,
        node,
        flow_id=0,
        peer="client",
        packet_factory=factory,
        delayed_ack=delayed_ack,
        ack_delay=ack_delay,
    )
    return sim, node, factory, sink


def send_data(sink, factory, seq, ecn_ce=False, now=0.0):
    packet = factory.data(0, "client", "server", 1000, seqno=seq, now=now)
    packet.ecn_ce = ecn_ce
    sink.receive(packet)


class TestTcpSink:
    def test_in_order_data_acked_cumulatively(self):
        sim, node, factory, sink = make_sink()
        for seq in range(3):
            send_data(sink, factory, seq)
        acks = [p.ackno for p in node.transmitted]
        assert acks == [0, 1, 2]
        assert sink.stats.unique_packets == 3

    def test_gap_generates_duplicate_acks(self):
        sim, node, factory, sink = make_sink()
        send_data(sink, factory, 0)
        send_data(sink, factory, 2)
        send_data(sink, factory, 3)
        acks = [p.ackno for p in node.transmitted]
        assert acks == [0, 0, 0]
        assert sink.stats.out_of_order == 2

    def test_hole_fill_drains_buffered_packets(self):
        sim, node, factory, sink = make_sink()
        send_data(sink, factory, 0)
        send_data(sink, factory, 2)
        send_data(sink, factory, 3)
        send_data(sink, factory, 1)  # fills the hole
        assert node.transmitted[-1].ackno == 3
        assert sink.stats.unique_packets == 4

    def test_below_cumulative_counts_duplicate(self):
        sim, node, factory, sink = make_sink()
        send_data(sink, factory, 0)
        send_data(sink, factory, 0)
        assert sink.stats.duplicates == 1
        # The duplicate still triggers an ACK (the sender may need it).
        assert len(node.transmitted) == 2

    def test_duplicate_out_of_order_counts_once(self):
        sim, node, factory, sink = make_sink()
        send_data(sink, factory, 5)
        send_data(sink, factory, 5)
        assert sink.stats.out_of_order == 1
        assert sink.stats.duplicates == 1

    def test_nothing_received_ackno_is_minus_one(self):
        _sim, node, factory, sink = make_sink()
        send_data(sink, factory, 3)
        assert [ack.ackno for ack in node.transmitted] == [-1]

    def test_acks_ignore_non_data(self):
        sim, node, factory, sink = make_sink()
        sink.receive(factory.ack(0, "x", "server", ackno=0, now=0.0))
        assert node.transmitted == []

    def test_ecn_ce_echoed_on_ack(self):
        sim, node, factory, sink = make_sink()
        send_data(sink, factory, 0, ecn_ce=True)
        assert node.transmitted[0].ecn_echo
        send_data(sink, factory, 1)
        assert not node.transmitted[1].ecn_echo

    def test_stats_bytes(self):
        sim, node, factory, sink = make_sink()
        send_data(sink, factory, 0)
        assert sink.stats.bytes_received == 1000


class TestDelayedAck:
    def test_every_second_packet_acked_immediately(self):
        sim, node, factory, sink = make_sink(delayed_ack=True)
        send_data(sink, factory, 0)
        assert node.transmitted == []  # first packet held
        send_data(sink, factory, 1)
        assert [p.ackno for p in node.transmitted] == [1]

    def test_timer_flushes_single_held_packet(self):
        sim, node, factory, sink = make_sink(delayed_ack=True, ack_delay=0.2)
        send_data(sink, factory, 0)
        sim.run(until=0.3)
        assert [p.ackno for p in node.transmitted] == [0]

    def test_out_of_order_acked_immediately(self):
        sim, node, factory, sink = make_sink(delayed_ack=True)
        send_data(sink, factory, 0)
        send_data(sink, factory, 2)  # gap: immediate duplicate ACK
        assert [p.ackno for p in node.transmitted] == [0]

    def test_timer_cancelled_after_flush(self):
        sim, node, factory, sink = make_sink(delayed_ack=True, ack_delay=0.2)
        send_data(sink, factory, 0)
        send_data(sink, factory, 1)  # flushes
        sim.run(until=1.0)
        assert len(node.transmitted) == 1  # no spurious timer ACK

    def test_fewer_acks_than_packets(self):
        sim, node, factory, sink = make_sink(delayed_ack=True)
        for seq in range(10):
            send_data(sink, factory, seq)
        assert sink.acks_sent == 5


class TestUdpSink:
    def test_counts_everything(self):
        sim = Simulator()
        node = CaptureNode(sim, "server")
        factory = PacketFactory()
        sink = UdpSink(sim, node, 0, "client", factory)
        for seq in range(4):
            sink.receive(factory.data(0, "client", "server", 1000, seqno=seq, now=0.0))
        assert sink.stats.packets_received == 4
        assert sink.stats.unique_packets == 4
        assert node.transmitted == []  # sends nothing back
