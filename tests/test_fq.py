"""Unit tests for the DRR fair queue with longest-queue drop."""

import pytest

from repro.net.fq import DRRQueue
from repro.net.packet import PacketFactory


def make_packet(factory, flow, seq=0, size=1000):
    return factory.data(flow, f"c{flow}", "s", size, seqno=seq, now=0.0)


def fill(queue, factory, flow, n, size=1000):
    admitted = 0
    for i in range(n):
        if queue.enqueue(make_packet(factory, flow, i, size), 0.0):
            admitted += 1
    return admitted


def drain(queue):
    out = []
    while True:
        packet = queue.dequeue(0.0)
        if packet is None:
            break
        out.append(packet)
    return out


class TestBasics:
    def test_invalid_quantum(self):
        with pytest.raises(ValueError):
            DRRQueue(10, quantum=0)

    def test_single_flow_fifo_order(self):
        queue = DRRQueue(10)
        factory = PacketFactory()
        fill(queue, factory, flow=0, n=5)
        assert [p.seqno for p in drain(queue)] == list(range(5))

    def test_len_counts_all_flows(self):
        queue = DRRQueue(20)
        factory = PacketFactory()
        fill(queue, factory, 0, 3)
        fill(queue, factory, 1, 4)
        assert len(queue) == 7
        assert queue.flow_queue_length(0) == 3
        assert queue.flow_queue_length(9) == 0

    def test_dequeue_empty(self):
        assert DRRQueue(5).dequeue(0.0) is None


class TestFairService:
    def test_round_robin_interleaves_flows(self):
        queue = DRRQueue(20, quantum=1000)
        factory = PacketFactory()
        fill(queue, factory, 0, 3)
        fill(queue, factory, 1, 3)
        flows = [p.flow_id for p in drain(queue)]
        # Equal packet sizes and quantum: strict alternation.
        assert flows == [0, 1, 0, 1, 0, 1]

    def test_byte_fairness_with_unequal_packet_sizes(self):
        # Flow 0 sends 500-B packets, flow 1 sends 1000-B packets; over a
        # full rotation both should receive (nearly) equal bytes.
        queue = DRRQueue(100, quantum=1000)
        factory = PacketFactory()
        fill(queue, factory, 0, 20, size=500)
        fill(queue, factory, 1, 10, size=1000)
        served = drain(queue)[:12]
        bytes_by_flow = {0: 0, 1: 0}
        for packet in served:
            bytes_by_flow[packet.flow_id] += packet.size
        assert bytes_by_flow[0] == pytest.approx(bytes_by_flow[1], rel=0.35)

    def test_idle_flow_forfeits_deficit(self):
        queue = DRRQueue(20, quantum=1000)
        factory = PacketFactory()
        fill(queue, factory, 0, 1)
        drain(queue)
        # Flow 0 re-appears later with no accumulated credit.
        fill(queue, factory, 0, 2)
        fill(queue, factory, 1, 2)
        flows = [p.flow_id for p in drain(queue)]
        assert flows == [0, 1, 0, 1]

    def test_large_packet_waits_for_deficit(self):
        queue = DRRQueue(20, quantum=500)
        factory = PacketFactory()
        fill(queue, factory, 0, 2, size=1000)  # needs two quanta each
        fill(queue, factory, 1, 2, size=500)
        flows = [p.flow_id for p in drain(queue)]
        # Flow 1's small packets slot in while flow 0 accumulates credit.
        assert flows[0] == 1 or flows.count(1) == 2


class TestLongestQueueDrop:
    def test_hog_pays_for_overflow(self):
        queue = DRRQueue(6)
        factory = PacketFactory()
        fill(queue, factory, 0, 5)  # the hog
        fill(queue, factory, 1, 1)
        # Buffer full; a polite flow's arrival evicts the hog's tail.
        assert queue.enqueue(make_packet(factory, 2, 99), 0.0)
        assert queue.flow_queue_length(0) == 4
        assert queue.flow_queue_length(2) == 1
        assert queue.stats.drops == 1

    def test_hog_arrival_dropped_directly(self):
        queue = DRRQueue(4)
        factory = PacketFactory()
        fill(queue, factory, 0, 3)
        fill(queue, factory, 1, 1)
        assert not queue.enqueue(make_packet(factory, 0, 99), 0.0)
        assert len(queue) == 4

    def test_capacity_never_exceeded(self):
        queue = DRRQueue(5)
        factory = PacketFactory()
        for flow in range(3):
            fill(queue, factory, flow, 4)
        assert len(queue) <= 5

    def test_conservation(self):
        queue = DRRQueue(5)
        factory = PacketFactory()
        for flow in range(3):
            fill(queue, factory, flow, 4)
        drained = len(drain(queue))
        stats = queue.stats
        assert stats.arrivals == 12
        assert stats.departures == drained
        assert stats.arrivals == stats.departures + stats.drops

    def test_eviction_books_the_full_length_up_to_it(self):
        """Length 1 on [0, 1), 2 on [1, 3); the eviction at 3 swaps the
        hog's tail for the arrival, so 2 again on [3, 4)."""
        queue = DRRQueue(2)
        factory = PacketFactory()
        assert queue.enqueue(make_packet(factory, 0, 0), 0.0)
        assert queue.enqueue(make_packet(factory, 0, 1), 1.0)
        assert queue.enqueue(make_packet(factory, 1, 0), 3.0)
        assert queue.stats.drops == 1
        queue.dequeue(4.0)
        assert queue.stats._occupancy_integral == 1 * 1 + 2 * 2 + 2 * 1
        assert queue.stats.mean_occupancy(4.0) == 7 / 4


class TestScenarioIntegration:
    def test_drr_scenario_runs(self):
        from repro.experiments.config import paper_config
        from repro.experiments.scenario import Scenario, run_scenario

        config = paper_config(protocol="reno", queue="drr", n_clients=4, duration=8.0)
        scenario = Scenario(config)
        assert isinstance(scenario.network.bottleneck_queue, DRRQueue)
        result = scenario.run()
        assert result.throughput_packets > 0

    def test_drr_label(self):
        from repro.experiments.config import paper_config

        assert paper_config(protocol="reno", queue="drr").label == "Reno/DRR"

    def test_drr_fairer_than_fifo_under_congestion(self):
        from repro.experiments.config import paper_config
        from repro.experiments.scenario import run_scenario
        from repro.analysis.stats import jains_fairness_index

        base = dict(n_clients=45, duration=30.0, seed=4)
        fifo = run_scenario(paper_config(protocol="reno", queue="fifo", **base))
        drr = run_scenario(paper_config(protocol="reno", queue="drr", **base))
        assert jains_fairness_index(drr.delivered_per_flow) >= (
            jains_fairness_index(fifo.delivered_per_flow) - 0.02
        )
