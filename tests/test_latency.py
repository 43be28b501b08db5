"""Tests for the application-to-ACK latency instrumentation."""

import gc
import sys
import tracemalloc

import pytest

from repro.engine.batch import BatchScenario
from repro.experiments.config import paper_config
from repro.experiments.scenario import Scenario, run_scenario
from repro.transport.reno import RenoSender
from repro.transport.tcp_base import _COMPACT_AT
from repro.transport.transitions import TcpParams

from tests.helpers import TcpHarness


def make_harness(**overrides):
    params = TcpParams(
        initial_cwnd=overrides.pop("cwnd", 4.0),
        initial_ssthresh=64.0,
        **overrides,
    )
    return TcpHarness(RenoSender, {"params": params})


class TestSenderLatency:
    def test_latency_counted_on_cumulative_ack(self):
        h = make_harness()
        h.give_app_packets(3)
        h.advance(0.5)
        h.deliver_ack(2)
        assert h.sender.stats.latency_count == 3
        assert h.sender.stats.mean_latency == pytest.approx(0.5)
        assert h.sender.stats.latency_max == pytest.approx(0.5)

    def test_latency_includes_send_buffer_wait(self):
        h = make_harness(cwnd=1.0)
        h.give_app_packets(2)  # packet 1 waits for the window
        h.advance(1.0)
        h.deliver_ack(0)  # packet 1 goes out now
        h.advance(1.0)
        h.deliver_ack(1)
        # Packet 1: generated at t=0, ACKed at t=2.
        assert h.sender.stats.latency_max == pytest.approx(2.0)

    def test_latency_spans_retransmissions(self):
        h = make_harness(cwnd=1.0, initial_rto=1.0, min_rto=1.0)
        h.give_app_packets(1)
        h.advance(1.5)  # timeout + retransmit
        h.advance(0.5)
        h.deliver_ack(0)
        assert h.sender.stats.latency_max == pytest.approx(2.0)

    def test_mean_latency_zero_before_completion(self):
        h = make_harness()
        h.give_app_packets(2)
        assert h.sender.stats.mean_latency == 0.0

    def test_per_packet_accounting(self):
        h = make_harness(cwnd=10.0)
        h.give_app_packets(5)
        h.advance(0.25)
        h.deliver_ack(1)
        h.advance(0.25)
        h.deliver_ack(4)
        stats = h.sender.stats
        assert stats.latency_count == 5
        # 2 packets at 0.25 s + 3 packets at 0.5 s.
        assert stats.latency_sum == pytest.approx(2 * 0.25 + 3 * 0.5)

    def test_deep_backlog_charges_each_packet_its_own_generation_time(self):
        """Arrivals outpace the window for 2000 ACK rounds, so the send
        buffer backs up by tens of thousands of packets -- past the
        point where the sender compacts its store of generation times,
        many times over.  Every ACKed packet is still charged the time
        it was handed over, in seqno order, by either arrival path."""
        h = make_harness()
        sender = h.sender
        generated = []  # every handed-over packet's time, in seqno order
        acked = count = 0
        total = peak = 0.0
        for step in range(2000):
            before = h.sim.now
            h.advance(0.01)
            now = h.sim.now
            if step % 7 == 3 and sender.send_buffer_backlog:
                # Arrivals the window was shut to, booked with their
                # own (past) times, as the batch engine replays them.
                times = [before + (now - before) * j / 4 for j in (1, 2, 3)]
                sender.app_arrival_bulk(times)
                generated.extend(times)
            k = step % 61
            h.give_app_packets(k)
            generated.extend([now] * k)
            if sender.maxseq > sender.last_ack:
                h.deliver_ack(sender.maxseq)
                for seq in range(acked, sender.last_ack + 1):
                    value = now - generated[seq]
                    count += 1
                    total += value
                    peak = max(peak, value)
                acked = sender.last_ack + 1
            if step % 100 == 99:
                stats = sender.stats
                assert (stats.latency_count, stats.latency_sum, stats.latency_max) == (
                    count,
                    total,
                    peak,
                )
                assert sender.app_total == stats.app_packets == len(generated)
                assert sender.send_buffer_backlog == len(generated) - (
                    sender.maxseq + 1
                )
        assert sender.stats.timeouts == sender.stats.retransmits == 0
        assert count > 30000 and sender.send_buffer_backlog > 15000


class TestScenarioLatency:
    def test_latency_reported_and_bounded(self):
        result = run_scenario(paper_config(protocol="reno", n_clients=4, duration=8.0))
        # Uncongested: latency is roughly one RTT per packet.
        assert 0.3 < result.mean_latency < 2.0
        assert result.max_latency >= result.mean_latency
        for flow in result.per_flow:
            assert flow.mean_latency > 0

    def test_congestion_raises_latency(self):
        light = run_scenario(
            paper_config(protocol="reno", n_clients=10, duration=20.0)
        )
        heavy = run_scenario(
            paper_config(protocol="reno", n_clients=50, duration=20.0)
        )
        assert heavy.mean_latency > light.mean_latency

    def test_udp_has_no_latency_accounting(self):
        result = run_scenario(paper_config(protocol="udp", n_clients=4, duration=5.0))
        assert result.mean_latency == 0.0


def _held_after(scenario_cls, duration):
    """Traced memory a finished overloaded cell still holds, and how
    many packets wait unACKed in its senders' buffers."""
    gc.collect()
    tracemalloc.start()
    try:
        scenario = scenario_cls(paper_config(n_clients=100, seed=3, duration=duration))
        scenario._execute()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    waiting = sum(s.app_total - (s.last_ack + 1) for s in scenario.senders)
    scenario.release()
    return held, waiting


@pytest.mark.parametrize("scenario_cls", [Scenario, BatchScenario])
def test_a_waiting_packet_costs_a_machine_float(scenario_cls):
    """Past the crossover the send buffers grow for the whole run, and
    each waiting packet keeps its generation time for the latency
    metric.  Doubling the horizon of an overloaded cell doubles that
    backlog; the memory it adds per extra waiting packet must stay near
    the 8 B of a float64 slot (a boxed float in a deque is ~32 B plus
    its slot)."""
    held_10, waiting_10 = _held_after(scenario_cls, 10.0)
    held_20, waiting_20 = _held_after(scenario_cls, 20.0)
    assert waiting_20 - waiting_10 > 5000
    assert (held_20 - held_10) / (waiting_20 - waiting_10) < 50


#: One backlogged Reno flow on a short path: it ACKs 375 packets a
#: second while the send buffer grows by 125.
BACKLOGGED = dict(
    protocol="reno",
    n_clients=1,
    seed=4,
    mean_gap=0.002,
    client_delay=0.001,
    bottleneck_delay=0.01,
    buffer_capacity=20,
    advertised_window=40,
)


def _per_sequence_state_after(duration):
    """Traced memory held by transport code at the end of the
    backlogged cell, minus the generation times (8 B per waiting packet,
    guarded above), and the packets ACKed."""
    gc.collect()
    tracemalloc.start()
    try:
        scenario = BatchScenario(paper_config(duration=duration, **BACKLOGGED))
        scenario._execute()
        gc.collect()
        snapshot = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*/repro/transport/*")]
        )
    finally:
        tracemalloc.stop()
    (sender,) = scenario.senders
    held = sum(stat.size for stat in snapshot.statistics("filename"))
    held -= sys.getsizeof(sender._generation_times)
    acked = sender.last_ack + 1
    scenario.release()
    return held, acked


def test_per_sequence_state_is_window_plus_compaction_slack_per_sender():
    """A sender's send times and transmit counts are arrays whose ACKed
    prefix is deleted every ``_COMPACT_AT`` ACKs, so what they hold is
    bounded by the window plus that slack however long the flow runs.
    From 10 s to 20 s the flow ACKs several times that bound, which a
    store that kept ACKed entries (12 B each) would add in full."""
    slack = _COMPACT_AT + BACKLOGGED["advertised_window"]
    held_10, acked_10 = _per_sequence_state_after(10.0)
    held_20, acked_20 = _per_sequence_state_after(20.0)
    assert acked_20 - acked_10 > 4 * slack
    assert held_20 - held_10 < 16 * slack
