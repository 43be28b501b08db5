"""Property-based tests on the queue disciplines (RED, DRR) and SACK."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.fq import DRRQueue
from repro.net.packet import PacketFactory
from repro.net.red import REDParams, REDQueue
from repro.transport.sack import SackSender
from repro.transport.transitions import TcpParams

from tests.helpers import TcpHarness


# ----------------------------------------------------------------------
# RED invariants
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    min_th=st.floats(min_value=1.0, max_value=20.0),
    band=st.floats(min_value=1.0, max_value=30.0),
    max_p=st.floats(min_value=0.01, max_value=1.0),
    operations=st.lists(st.booleans(), min_size=1, max_size=300),
    seed=st.integers(min_value=0, max_value=100),
)
def test_red_capacity_and_conservation(min_th, band, max_p, operations, seed):
    capacity = 30
    queue = REDQueue(
        capacity,
        REDParams(min_th=min_th, max_th=min_th + band, max_p=max_p, weight=0.2),
        random.Random(seed),
    )
    factory = PacketFactory()
    now = 0.0
    seq = 0
    for is_enqueue in operations:
        now += 0.01
        if is_enqueue:
            queue.enqueue(factory.data(0, "a", "b", 1000, seqno=seq, now=now), now)
            seq += 1
        else:
            queue.dequeue(now)
        assert len(queue) <= capacity
        assert queue.avg >= 0.0
    stats = queue.stats
    assert stats.arrivals == stats.departures + stats.drops + len(queue)


# ----------------------------------------------------------------------
# DRR invariants
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    capacity=st.integers(min_value=2, max_value=15),
    quantum=st.integers(min_value=100, max_value=2000),
    operations=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=4)),
        min_size=1,
        max_size=200,
    ),
)
def test_drr_capacity_conservation_and_order(capacity, quantum, operations):
    queue = DRRQueue(capacity, quantum=quantum)
    factory = PacketFactory()
    seq_by_flow = {}
    served_by_flow = {}
    for is_enqueue, flow in operations:
        if is_enqueue:
            seq = seq_by_flow.get(flow, 0)
            seq_by_flow[flow] = seq + 1
            queue.enqueue(
                factory.data(flow, f"c{flow}", "s", 1000, seqno=seq, now=0.0), 0.0
            )
        else:
            packet = queue.dequeue(0.0)
            if packet is not None:
                served = served_by_flow.setdefault(packet.flow_id, [])
                served.append(packet.seqno)
        assert len(queue) <= capacity
    # Drain what's left.
    while True:
        packet = queue.dequeue(0.0)
        if packet is None:
            break
        served_by_flow.setdefault(packet.flow_id, []).append(packet.seqno)
    stats = queue.stats
    assert stats.arrivals == stats.departures + stats.drops
    # Per-flow FIFO order even under longest-queue drops.
    for flow, seqs in served_by_flow.items():
        assert seqs == sorted(seqs)


@settings(max_examples=30, deadline=None)
@given(
    n_per_flow=st.integers(min_value=1, max_value=10),
    n_flows=st.integers(min_value=2, max_value=5),
)
def test_drr_equal_flows_get_equal_service(n_per_flow, n_flows):
    queue = DRRQueue(1000, quantum=1000)
    factory = PacketFactory()
    for flow in range(n_flows):
        for seq in range(n_per_flow):
            queue.enqueue(
                factory.data(flow, f"c{flow}", "s", 1000, seqno=seq, now=0.0), 0.0
            )
    # After n_flows * k dequeues, every flow has been served exactly k times.
    k = n_per_flow // 2 + 1
    served = {}
    for _ in range(min(n_flows * k, n_flows * n_per_flow)):
        packet = queue.dequeue(0.0)
        served[packet.flow_id] = served.get(packet.flow_id, 0) + 1
    counts = set(served.values())
    assert max(counts) - min(counts) <= 1


# ----------------------------------------------------------------------
# SACK invariants under random ACK/SACK streams
# ----------------------------------------------------------------------
sack_event = st.one_of(
    st.tuples(st.just("app"), st.integers(min_value=1, max_value=20)),
    st.tuples(st.just("ack"), st.integers(min_value=-1, max_value=8)),
    st.tuples(st.just("sack"), st.integers(min_value=1, max_value=10)),
    st.tuples(st.just("wait"), st.floats(min_value=0.0, max_value=2.0)),
)


@settings(max_examples=40, deadline=None)
@given(script=st.lists(sack_event, min_size=1, max_size=60))
def test_sack_sender_invariants(script):
    h = TcpHarness(
        SackSender,
        {"params": TcpParams(initial_cwnd=2.0, min_rto=0.5, initial_rto=1.0)},
    )
    rng = random.Random(1234)
    for kind, value in script:
        if kind == "app":
            h.give_app_packets(value)
        elif kind == "wait":
            h.advance(value)
        elif kind == "ack":
            target = min(h.sender.last_ack + value, h.sender.maxseq)
            if target >= 0:
                h.deliver_ack(target)
        else:  # sack: a dup ACK carrying a random plausible block
            if h.sender.maxseq <= h.sender.last_ack + 1:
                continue
            lo = rng.randint(h.sender.last_ack + 1, h.sender.maxseq)
            hi = min(h.sender.maxseq, lo + value)
            ack = h.factory.ack(
                flow_id=0,
                src="peer",
                dst=h.node.name,
                ackno=h.sender.last_ack,
                now=h.sim.now,
                sack_blocks=((lo, hi),),
            )
            h.sender.receive(ack)
        sender = h.sender
        assert 1.0 <= sender.cwnd <= sender.params.advertised_window
        assert sender.pipe >= 0
        # Scoreboard only holds unACKed, previously-sent sequences.
        assert all(
            sender.last_ack < seq for seq in sender.scoreboard
        )
        assert sender.t_seqno <= sender.app_total
