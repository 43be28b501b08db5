"""Unit tests for the queue interface and drop-tail FIFO."""

import pytest

from repro.net.packet import PacketFactory
from repro.net.queues import DropTailQueue


def make_packets(n, size=1000):
    factory = PacketFactory()
    return [factory.data(0, "a", "b", size, seqno=i, now=0.0) for i in range(n)]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        DropTailQueue(0)


def test_enqueue_dequeue_fifo_order():
    queue = DropTailQueue(10)
    packets = make_packets(3)
    for i, packet in enumerate(packets):
        assert queue.enqueue(packet, now=float(i))
    out = [queue.dequeue(now=5.0) for _ in range(3)]
    assert out == packets


def test_dequeue_empty_returns_none():
    assert DropTailQueue(1).dequeue(now=0.0) is None


def test_drop_when_full():
    queue = DropTailQueue(2)
    packets = make_packets(3)
    assert queue.enqueue(packets[0], 0.0)
    assert queue.enqueue(packets[1], 0.0)
    assert not queue.enqueue(packets[2], 0.0)
    assert len(queue) == 2


def test_length_never_exceeds_capacity():
    queue = DropTailQueue(5)
    for packet in make_packets(20):
        queue.enqueue(packet, 0.0)
        assert len(queue) <= 5


def test_stats_counters():
    queue = DropTailQueue(2)
    for packet in make_packets(4):
        queue.enqueue(packet, 0.0)
    queue.dequeue(1.0)
    stats = queue.stats
    assert stats.arrivals == 4
    assert stats.drops == 2
    assert stats.departures == 1
    assert stats.bytes_arrived == 4000
    assert stats.bytes_departed == 1000


def test_drop_hook_called_with_packet_and_time():
    queue = DropTailQueue(1)
    dropped = []
    queue.add_drop_hook(lambda p, t: dropped.append((p.seqno, t)))
    packets = make_packets(2)
    queue.enqueue(packets[0], 0.0)
    queue.enqueue(packets[1], 2.5)
    assert dropped == [(1, 2.5)]


def test_mean_occupancy_time_weighted():
    queue = DropTailQueue(10)
    packets = make_packets(2)
    queue.enqueue(packets[0], 0.0)  # length 0 until t=0
    queue.enqueue(packets[1], 4.0)  # length 1 during [0, 4)
    queue.dequeue(8.0)  # length 2 during [4, 8)
    queue.dequeue(10.0)  # length 1 during [8, 10)
    # integral = 0*0 + 1*4 + 2*4 + 1*2 = 14 over duration 10
    assert queue.stats.mean_occupancy(10.0) == pytest.approx(1.4)


def test_mean_occupancy_zero_duration():
    assert DropTailQueue(1).stats.mean_occupancy(0.0) == 0.0


def test_conservation_arrivals_equals_departures_plus_drops_plus_queued():
    queue = DropTailQueue(3)
    admitted = 0
    for packet in make_packets(10):
        if queue.enqueue(packet, 0.0):
            admitted += 1
    drained = 0
    while queue.dequeue(1.0) is not None:
        drained += 1
    stats = queue.stats
    assert stats.arrivals == stats.departures + stats.drops
    assert drained == admitted
