"""Unit tests for TCP SACK (sender scoreboard + sink blocks)."""

import pytest

from repro.net.packet import PacketFactory
from repro.sim.engine import Simulator
from repro.transport.sack import SackSender
from repro.transport.sink import TcpSink
from repro.transport.transitions import TcpParams

from tests.helpers import CaptureNode, TcpHarness


def make_harness(cwnd=8.0, **overrides):
    params = TcpParams(
        initial_cwnd=cwnd,
        initial_ssthresh=overrides.pop("ssthresh", 64.0),
        **overrides,
    )
    return TcpHarness(SackSender, {"params": params})


def deliver_sack(h, ackno, blocks):
    ack = h.factory.ack(
        flow_id=0,
        src="peer",
        dst=h.node.name,
        ackno=ackno,
        now=h.sim.now,
        sack_blocks=tuple(blocks),
    )
    h.sender.receive(ack)


class TestSackSink:
    def make_sink(self):
        sim = Simulator()
        node = CaptureNode(sim, "server")
        factory = PacketFactory()
        sink = TcpSink(sim, node, 0, "client", factory, sack=True)
        return node, factory, sink

    def send(self, sink, factory, seq):
        sink.receive(factory.data(0, "client", "server", 1000, seqno=seq, now=0.0))

    def test_no_blocks_when_in_order(self):
        node, factory, sink = self.make_sink()
        self.send(sink, factory, 0)
        assert node.transmitted[0].sack_blocks == ()

    def test_single_block_for_gap(self):
        node, factory, sink = self.make_sink()
        self.send(sink, factory, 0)
        self.send(sink, factory, 2)
        assert node.transmitted[-1].sack_blocks == ((2, 2),)

    def test_contiguous_runs_merge(self):
        node, factory, sink = self.make_sink()
        self.send(sink, factory, 0)
        for seq in (2, 3, 4):
            self.send(sink, factory, seq)
        assert node.transmitted[-1].sack_blocks == ((2, 4),)

    def test_latest_block_first(self):
        node, factory, sink = self.make_sink()
        self.send(sink, factory, 0)
        self.send(sink, factory, 5)
        self.send(sink, factory, 2)  # newest arrival: block (2,2) first
        assert node.transmitted[-1].sack_blocks[0] == (2, 2)

    def test_at_most_three_blocks(self):
        node, factory, sink = self.make_sink()
        self.send(sink, factory, 0)
        for seq in (2, 4, 6, 8, 10):
            self.send(sink, factory, seq)
        assert len(node.transmitted[-1].sack_blocks) == 3

    def test_blocks_cleared_after_hole_filled(self):
        node, factory, sink = self.make_sink()
        self.send(sink, factory, 0)
        self.send(sink, factory, 2)
        self.send(sink, factory, 1)
        assert node.transmitted[-1].sack_blocks == ()


class TestSackSender:
    def test_scoreboard_tracks_blocks(self):
        h = make_harness()
        h.give_app_packets(100)
        deliver_sack(h, 0, [(2, 4)])
        assert h.sender.scoreboard == {2, 3, 4}

    def test_scoreboard_pruned_by_cumulative_ack(self):
        h = make_harness()
        h.give_app_packets(100)
        deliver_sack(h, 0, [(2, 5)])
        deliver_sack(h, 3, [])
        assert h.sender.scoreboard == {4, 5}

    def test_recovery_retransmits_only_real_holes(self):
        h = make_harness(cwnd=8.0)
        h.give_app_packets(100)
        h.deliver_ack(0)
        # Packets 1 and 3 lost; 2 and 4.. SACKed via dup ACKs.
        deliver_sack(h, 0, [(2, 2)])
        deliver_sack(h, 0, [(4, 4), (2, 2)])
        deliver_sack(h, 0, [(5, 5), (4, 4), (2, 2)])
        assert h.sender.in_recovery
        sent = h.sent_seqnos()
        # Hole 1 retransmitted first; hole 3 goes out once another
        # duplicate ACK frees a pipe slot.
        assert sent.count(1) == 2
        deliver_sack(h, 0, [(6, 6), (5, 5), (4, 4)])
        sent = h.sent_seqnos()
        assert sent.count(3) == 2
        # SACKed packets are never retransmitted.
        assert sent.count(2) == 1
        assert sent.count(4) == 1

    def test_no_spurious_retransmit_above_highest_sack(self):
        h = make_harness(cwnd=8.0)
        h.give_app_packets(100)
        h.deliver_ack(0)
        for _ in range(3):
            deliver_sack(h, 0, [(2, 2)])
        sent = h.sent_seqnos()
        # Only packet 1 (below the SACKed 2) is a provable hole.
        for seq in range(3, 9):
            assert sent.count(seq) == 1

    def test_window_halved_on_entry(self):
        h = make_harness(cwnd=8.0)
        h.give_app_packets(100)
        h.deliver_ack(0)
        window_before = h.sender.window()
        for _ in range(3):
            deliver_sack(h, 0, [(2, 2)])
        assert h.sender.ssthresh == pytest.approx(window_before / 2.0)
        assert h.sender.cwnd == pytest.approx(h.sender.ssthresh)

    def test_full_ack_exits_recovery(self):
        h = make_harness(cwnd=8.0)
        h.give_app_packets(100)
        h.deliver_ack(0)
        for _ in range(3):
            deliver_sack(h, 0, [(2, 2)])
        assert h.sender.in_recovery
        h.deliver_ack(h.sender.maxseq)
        assert not h.sender.in_recovery
        assert h.sender.scoreboard == set()

    def test_partial_ack_stays_in_recovery(self):
        h = make_harness(cwnd=8.0)
        h.give_app_packets(100)
        h.deliver_ack(0)
        deliver_sack(h, 0, [(2, 2)])
        deliver_sack(h, 0, [(4, 4), (2, 2)])
        deliver_sack(h, 0, [(5, 5), (4, 4), (2, 2)])
        h.deliver_ack(2)  # partial
        assert h.sender.in_recovery

    def test_timeout_clears_scoreboard(self):
        h = make_harness(cwnd=8.0, initial_rto=1.0, min_rto=1.0)
        h.give_app_packets(100)
        deliver_sack(h, 0, [(2, 4)])
        h.advance(3.0)
        assert h.sender.stats.timeouts >= 1
        assert h.sender.scoreboard == set()
        assert h.sender.cwnd == 1.0

    def test_dupacks_open_pipe_for_new_data(self):
        h = make_harness(cwnd=4.0, advertised_window=100)
        h.give_app_packets(100)
        h.deliver_ack(0)
        for _ in range(3):
            deliver_sack(h, 0, [(2, 2)])
        highest = h.sender.maxseq
        # Each further dupack decrements pipe: room for new packets.
        for _ in range(5):
            deliver_sack(h, 0, [(2, 2)])
        assert h.sender.maxseq > highest

    def test_protocol_name(self):
        assert SackSender.protocol_name == "sack"


class TestSackEndToEnd:
    def test_scenario_runs_and_delivers(self):
        from repro.experiments.config import paper_config
        from repro.experiments.scenario import run_scenario

        result = run_scenario(
            paper_config(protocol="sack", n_clients=4, duration=8.0)
        )
        assert result.throughput_packets > 0

    def test_sack_fewer_timeouts_than_reno_under_congestion(self):
        from repro.experiments.config import paper_config
        from repro.experiments.scenario import run_scenario

        base = dict(n_clients=45, duration=30.0, seed=3)
        sack = run_scenario(paper_config(protocol="sack", **base))
        reno = run_scenario(paper_config(protocol="reno", **base))
        assert sack.timeouts < reno.timeouts
