"""Unit tests for measurement instruments."""

import pytest

from repro.core.cov import FOLD_SIZE
from repro.net.link import Link
from repro.net.monitor import ArrivalMonitor, FlowStats
from repro.net.node import Node
from repro.net.packet import PacketFactory
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator


def make_monitor(t_end=4.0):
    return ArrivalMonitor(1.0, 0.0, t_end)


def data_packet(factory, seq=0):
    return factory.data(0, "a", "b", 1000, seqno=seq, now=0.0)


def ack_packet(factory):
    return factory.ack(0, "b", "a", ackno=0, now=0.0)


class TestArrivalMonitor:
    def test_bins_by_arrival_time(self):
        monitor = make_monitor()
        factory = PacketFactory()
        for t in [0.1, 0.2, 1.5, 3.7]:
            monitor.on_packet(data_packet(factory), t)
        assert list(monitor.counts()) == [2, 1, 0, 1]

    def test_total(self):
        monitor = make_monitor()
        factory = PacketFactory()
        for t in [0.5, 1.5]:
            monitor.on_packet(data_packet(factory), t)
        assert monitor.counts().sum() == 2

    def test_acks_ignored_by_default(self):
        monitor = make_monitor(t_end=2.0)
        factory = PacketFactory()
        monitor.on_packet(ack_packet(factory), 0.5)
        monitor.on_packet(data_packet(factory), 1.5)
        assert list(monitor.counts()) == [0, 1]

    def test_warmup_discards_early_arrivals(self):
        monitor = ArrivalMonitor(1.0, 10.0, 11.0)
        factory = PacketFactory()
        monitor.on_packet(data_packet(factory), 5.0)
        monitor.on_packet(data_packet(factory), 10.5)
        assert list(monitor.counts()) == [1]

    def test_counts_until_pads_trailing_empty_bins(self):
        """The window runs to ``t_end``: trailing empty bins count."""
        monitor = make_monitor(t_end=5.0)
        factory = PacketFactory()
        monitor.on_packet(data_packet(factory), 0.5)
        counts = monitor.counts()
        assert len(counts) == 5
        assert counts.sum() == 1

    def test_counts_until_truncates(self):
        """Arrivals at or after ``t_end`` count in no bin."""
        monitor = make_monitor(t_end=2.0)
        factory = PacketFactory()
        for t in [0.5, 2.0, 4.5]:
            monitor.on_packet(data_packet(factory), t)
        assert list(monitor.counts()) == [1, 0]

    def test_counts_until_before_start_is_empty(self):
        """A window shorter than one bin has no bins."""
        monitor = ArrivalMonitor(1.0, 10.0, 10.5)
        monitor.on_packet(data_packet(PacketFactory()), 10.2)
        assert monitor.counts().size == 0

    def test_invalid_bin_width(self):
        with pytest.raises(ValueError):
            ArrivalMonitor(0.0, 0.0, 1.0)

    def test_hot_path_folds_at_the_fold_size(self):
        monitor = make_monitor()
        packet = data_packet(PacketFactory())
        for _ in range(FOLD_SIZE + 3):
            monitor.on_packet(packet, 2.5)
        assert len(monitor.times) == len(monitor.flows) == 3
        assert list(monitor.counts()) == [0, 0, FOLD_SIZE + 3, 0]

    def test_rows_grow_across_folds(self):
        monitor = make_monitor()
        factory = PacketFactory()
        packet = data_packet(factory)
        for _ in range(FOLD_SIZE):
            monitor.on_packet(packet, 0.5)
        monitor.on_packet(factory.data(3, "a", "b", 1000, seqno=0, now=0.0), 1.5)
        rows = monitor.flow_counts()
        assert rows.tolist() == [[FOLD_SIZE, 0, 0, 0], [0] * 4, [0] * 4, [0, 1, 0, 0]]
        assert monitor.counts().tolist() == [FOLD_SIZE, 1, 0, 0]

    def test_attach_hooks_into_interface(self):
        sim = Simulator()
        a, b = Node(sim, "a"), Node(sim, "b")
        Link(sim, a, b, 1e6, 0.0, queue_ab=DropTailQueue(1))
        factory = PacketFactory()
        monitor = ArrivalMonitor(1.0, 0.0, 1.0).attach(a.interfaces["b"])
        a.set_default_route("b")
        # Three sends into a capacity-1 queue: 1 transmitted, 1 queued,
        # 1 dropped -- every one offered to the port is counted.
        for i in range(3):
            a.send(data_packet(factory, i))
        assert list(monitor.counts()) == [3]
        assert a.interfaces["b"].queue.stats.drops == 1


def test_flow_stats_defaults():
    stats = FlowStats(flow_id=7)
    assert stats.flow_id == 7
    assert stats.packets_received == 0
