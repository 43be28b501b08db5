"""Unit tests for the dumbbell topology builder."""

import pytest

from repro.experiments.config import paper_config
from repro.net.queues import DropTailQueue
from repro.net.red import REDQueue
from repro.net.topology import DumbbellNetwork, build_dumbbell
from repro.sim.engine import Simulator
from repro.transport.base import Agent


class RecordingAgent(Agent):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.received = []

    def receive(self, packet):
        self.received.append(packet)


def test_default_build_matches_table1_topology():
    network = build_dumbbell(Simulator())
    config = network.config
    assert len(network.clients) == config.n_clients
    assert config.buffer_capacity == 50
    assert isinstance(network.bottleneck_queue, DropTailQueue)
    assert network.bottleneck_queue.capacity == 50



def test_default_delays_are_table1s():
    """The builder's defaults put the same propagation RTT on the wire
    as the reconstructed Table 1 (tau_c = 2 ms, tau_s = 200 ms)."""
    assert build_dumbbell(Simulator()).rtt_prop == paper_config().rtt_prop


def test_rtt_prop():
    config = paper_config(client_delay=0.002, bottleneck_delay=0.2)
    network = DumbbellNetwork(Simulator(), config)
    assert network.rtt_prop == pytest.approx(0.404)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_clients=0),
        dict(client_rate_bps=0),
        dict(bottleneck_rate_bps=-1),
        dict(client_delay=-0.1),
        dict(buffer_capacity=0),
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        DumbbellNetwork(Simulator(), paper_config(**kwargs))


def test_custom_queue_factory_used_for_bottleneck():
    queue = REDQueue(50)
    network = DumbbellNetwork(Simulator(), paper_config(n_clients=2), queue)
    assert network.bottleneck_queue is queue
    assert network.bottleneck_interface.queue is queue


def test_client_names_are_canonical():
    assert DumbbellNetwork.client_name(3) == "client-3"
    network = build_dumbbell(Simulator(), paper_config(n_clients=2))
    assert [c.name for c in network.clients] == ["client-0", "client-1"]


def test_client_to_server_path_end_to_end():
    sim = Simulator()
    network = DumbbellNetwork(sim, paper_config(n_clients=3))
    factory = network.packet_factory
    agent = RecordingAgent(sim, network.server, 1, "client-1", factory)
    packet = factory.data(1, "client-1", "server", 1000, seqno=0, now=0.0)
    network.clients[1].send(packet)
    sim.run()
    assert agent.received == [packet]


def test_server_to_client_reverse_path():
    sim = Simulator()
    network = DumbbellNetwork(sim, paper_config(n_clients=3))
    factory = network.packet_factory
    agent = RecordingAgent(sim, network.clients[2], 2, "server", factory)
    ack = factory.ack(2, "server", "client-2", ackno=0, now=0.0)
    network.server.send(ack)
    sim.run()
    assert agent.received == [ack]


def test_forward_path_traverses_bottleneck_queue():
    sim = Simulator()
    network = DumbbellNetwork(sim, paper_config(n_clients=1))
    factory = network.packet_factory
    RecordingAgent(sim, network.server, 0, "client-0", factory)
    network.clients[0].send(
        factory.data(0, "client-0", "server", 1000, seqno=0, now=0.0)
    )
    sim.run()
    assert network.bottleneck_queue.stats.arrivals == 1
    assert network.bottleneck_queue.stats.departures == 1


def test_bottleneck_interface_is_gateway_to_server():
    network = build_dumbbell(Simulator())
    assert network.bottleneck_interface is network.gateway.interfaces["server"]


def test_ascii_diagram_mentions_parameters():
    network = build_dumbbell(Simulator(), paper_config(n_clients=4))
    diagram = network.ascii_diagram()
    assert "gateway" in diagram
    assert "server" in diagram
    assert "client-3" in diagram
