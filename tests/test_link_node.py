"""Unit tests for interfaces, links, and node forwarding."""

import pytest

from repro.net.link import Interface, Link
from repro.net.node import Node, RoutingError
from repro.net.packet import PacketFactory
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator
from repro.transport.base import Agent


class RecordingAgent(Agent):
    """Collects (time, packet) deliveries."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def receive(self, packet):
        self.received.append((self.sim.now, packet))


def build_pair(rate=1e6, delay=0.01):
    sim = Simulator()
    a = Node(sim, "a")
    b = Node(sim, "b")
    Link(sim, a, b, rate, delay)
    factory = PacketFactory()
    return sim, a, b, factory


def test_transmission_plus_propagation_delay():
    sim, a, b, factory = build_pair(rate=1e6, delay=0.01)
    agent = RecordingAgent(sim, b, 0, "a", factory)
    a.set_default_route("b")
    packet = factory.data(0, "a", "b", 1000, seqno=0, now=0.0)
    a.send(packet)
    sim.run()
    # 1000 B at 1 Mb/s = 8 ms tx, + 10 ms propagation.
    assert agent.received[0][0] == pytest.approx(0.018)


def test_transmission_time_scales_with_size():
    sim, a, b, factory = build_pair(rate=1e6, delay=0.0)
    iface = a.interfaces["b"]
    small = factory.data(0, "a", "b", 500, seqno=0, now=0.0)
    large = factory.data(0, "a", "b", 2000, seqno=1, now=0.0)
    assert iface.transmission_time(large) == pytest.approx(
        4 * iface.transmission_time(small)
    )


def test_back_to_back_packets_serialize():
    sim, a, b, factory = build_pair(rate=1e6, delay=0.0)
    agent = RecordingAgent(sim, b, 0, "a", factory)
    a.set_default_route("b")
    for i in range(3):
        a.send(factory.data(0, "a", "b", 1000, seqno=i, now=0.0))
    sim.run()
    times = [t for t, _ in agent.received]
    assert times == pytest.approx([0.008, 0.016, 0.024])


def test_wire_pipelines_multiple_packets():
    # Long delay, fast link: several packets in flight at once.
    sim, a, b, factory = build_pair(rate=1e8, delay=1.0)
    agent = RecordingAgent(sim, b, 0, "a", factory)
    a.set_default_route("b")
    for i in range(3):
        a.send(factory.data(0, "a", "b", 1000, seqno=i, now=0.0))
    sim.run()
    times = [t for t, _ in agent.received]
    # All arrive ~1 s after their (tiny) transmission slots, well before
    # 2 s: the wire did not serialize them by the propagation delay.
    assert all(t < 1.01 for t in times)
    assert len(times) == 3


def test_fifo_delivery_order_preserved():
    sim, a, b, factory = build_pair()
    agent = RecordingAgent(sim, b, 0, "a", factory)
    a.set_default_route("b")
    for i in range(5):
        a.send(factory.data(0, "a", "b", 1000, seqno=i, now=0.0))
    sim.run()
    assert [p.seqno for _, p in agent.received] == list(range(5))


def test_interface_counts_sent_traffic():
    sim, a, b, factory = build_pair()
    RecordingAgent(sim, b, 0, "a", factory)
    a.set_default_route("b")
    a.send(factory.data(0, "a", "b", 1000, seqno=0, now=0.0))
    sim.run()
    iface = a.interfaces["b"]
    assert iface.packets_sent == 1
    assert iface.bytes_sent == 1000


def test_send_hook_sees_every_offered_packet():
    sim, a, b, factory = build_pair()
    RecordingAgent(sim, b, 0, "a", factory)
    a.set_default_route("b")
    seen = []
    a.interfaces["b"].add_send_hook(lambda p, t: seen.append(p.seqno))
    for i in range(3):
        a.send(factory.data(0, "a", "b", 1000, seqno=i, now=0.0))
    sim.run()
    assert seen == [0, 1, 2]


def test_queue_overflow_drops_but_keeps_delivering():
    sim = Simulator()
    a = Node(sim, "a")
    b = Node(sim, "b")
    Link(sim, a, b, 1e6, 0.0, queue_ab=DropTailQueue(2))
    factory = PacketFactory()
    agent = RecordingAgent(sim, b, 0, "a", factory)
    a.set_default_route("b")
    for i in range(10):
        a.send(factory.data(0, "a", "b", 1000, seqno=i, now=0.0))
    sim.run()
    # 1 in transmission + 2 queued = 3 delivered; 7 dropped.
    assert len(agent.received) == 3
    assert a.interfaces["b"].queue.stats.drops == 7


def test_invalid_link_parameters():
    sim = Simulator()
    node = Node(sim, "x")
    with pytest.raises(ValueError):
        Interface(sim, "i", node, rate_bps=0, delay=0.0, queue=DropTailQueue(1))
    with pytest.raises(ValueError):
        Interface(sim, "i", node, rate_bps=1e6, delay=-1.0, queue=DropTailQueue(1))


def test_duplex_link_attaches_both_directions():
    sim, a, b, _factory = build_pair()
    assert "b" in a.interfaces
    assert "a" in b.interfaces


def test_node_routes_by_destination():
    sim = Simulator()
    a, mid, b = Node(sim, "a"), Node(sim, "mid"), Node(sim, "b")
    Link(sim, a, mid, 1e6, 0.0)
    Link(sim, mid, b, 1e6, 0.0)
    factory = PacketFactory()
    agent = RecordingAgent(sim, b, 0, "a", factory)
    a.set_default_route("mid")
    mid.add_route("b", "b")
    a.send(factory.data(0, "a", "b", 1000, seqno=0, now=0.0))
    sim.run()
    assert len(agent.received) == 1
    assert mid.packets_forwarded == 1


def test_missing_route_raises():
    sim = Simulator()
    a = Node(sim, "a")
    b = Node(sim, "b")
    Link(sim, a, b, 1e6, 0.0)
    factory = PacketFactory()
    with pytest.raises(RoutingError):
        a.send(factory.data(0, "a", "nowhere", 1000, seqno=0, now=0.0))


def test_missing_route_raises_for_a_received_packet():
    """``receive`` looks the route up itself; the packet it cannot
    place still gets ``send``'s error, and is not counted."""
    sim = Simulator()
    a = Node(sim, "a")
    Link(sim, a, Node(sim, "b"), 1e6, 0.0)
    with pytest.raises(RoutingError, match="no route to 'nowhere'"):
        a.receive(PacketFactory().data(0, "x", "nowhere", 1000, seqno=0, now=0.0))
    assert a.packets_forwarded == 0


def test_route_via_unknown_interface_raises():
    sim = Simulator()
    node = Node(sim, "a")
    with pytest.raises(RoutingError):
        node.add_route("b", "ghost")
    with pytest.raises(RoutingError):
        node.set_default_route("ghost")


def test_unbound_flow_delivery_raises():
    sim, a, b, factory = build_pair()
    a.set_default_route("b")
    a.send(factory.data(99, "a", "b", 1000, seqno=0, now=0.0))
    with pytest.raises(RoutingError):
        sim.run()


def test_duplicate_flow_binding_raises():
    sim, a, b, factory = build_pair()
    RecordingAgent(sim, b, 0, "a", factory)
    with pytest.raises(ValueError):
        RecordingAgent(sim, b, 0, "a", factory)


def test_delivery_counter():
    sim, a, b, factory = build_pair()
    RecordingAgent(sim, b, 0, "a", factory)
    a.set_default_route("b")
    a.send(factory.data(0, "a", "b", 1000, seqno=0, now=0.0))
    sim.run()
    assert b.packets_delivered == 1
