"""Property-based tests on TCP sender invariants under random ACK streams."""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.newreno import NewRenoSender
from repro.transport.reno import RenoSender
from repro.transport.tahoe import TahoeSender
from repro.transport.transitions import TcpParams
from repro.transport.vegas import VegasSender

from tests.helpers import TcpHarness

SENDERS = [TahoeSender, RenoSender, NewRenoSender, VegasSender]


def drive(sender_cls, script):
    """Drive a sender with a random script of events.

    Script items: ("app", n) hand packets over; ("ack", k) deliver an
    ACK k positions above/below last_ack; ("wait", dt) advance time.
    """
    h = TcpHarness(
        sender_cls,
        {"params": TcpParams(initial_cwnd=2.0, min_rto=0.5, initial_rto=1.0)},
    )
    for kind, value in script:
        if kind == "app":
            h.give_app_packets(value)
        elif kind == "wait":
            h.advance(value)
        else:  # ack
            target = h.sender.last_ack + value
            if target > h.sender.maxseq:
                target = h.sender.maxseq
            if target >= 0:
                h.deliver_ack(target)
        check_invariants(h.sender)
    return h


def check_invariants(sender):
    params = sender.params
    assert 1.0 <= sender.cwnd <= params.advertised_window
    assert sender.ssthresh >= 2.0
    assert sender.last_ack <= sender.maxseq
    assert sender.t_seqno <= sender.app_total
    assert sender.t_seqno >= sender.last_ack + 1 or sender.maxseq == -1
    # In flight never exceeds the advertised window (flow control).
    assert sender.outstanding <= params.advertised_window
    assert params.min_rto <= sender.rto <= params.max_rto
    assert sender.dupacks >= 0


event = st.one_of(
    st.tuples(st.just("app"), st.integers(min_value=1, max_value=30)),
    st.tuples(st.just("ack"), st.integers(min_value=-2, max_value=10)),
    st.tuples(st.just("wait"), st.floats(min_value=0.0, max_value=3.0, allow_nan=False)),
)


@settings(max_examples=40, deadline=None)
@given(script=st.lists(event, min_size=1, max_size=60))
def test_reno_invariants_under_random_events(script):
    drive(RenoSender, script)


@settings(max_examples=40, deadline=None)
@given(script=st.lists(event, min_size=1, max_size=60))
def test_tahoe_invariants_under_random_events(script):
    drive(TahoeSender, script)


@settings(max_examples=40, deadline=None)
@given(script=st.lists(event, min_size=1, max_size=60))
def test_newreno_invariants_under_random_events(script):
    drive(NewRenoSender, script)


@settings(max_examples=40, deadline=None)
@given(script=st.lists(event, min_size=1, max_size=60))
def test_vegas_invariants_under_random_events(script):
    h = drive(VegasSender, script)
    assert h.sender.base_rtt > 0  # inf before any sample, positive after


@settings(max_examples=20, deadline=None)
@given(script=st.lists(event, min_size=1, max_size=40))
def test_sequence_numbers_never_skipped(script):
    """Every transmitted DATA seqno is within [0, maxseq] and first
    transmissions appear in increasing order."""
    h = drive(RenoSender, script)
    seen = set()
    first_transmissions = []
    for packet in h.transmitted:
        if not packet.is_data:
            continue
        if packet.seqno not in seen:
            seen.add(packet.seqno)
            first_transmissions.append(packet.seqno)
    assert first_transmissions == sorted(first_transmissions)
    if first_transmissions:
        # No gaps: a seqno is only ever sent after all before it.
        assert first_transmissions == list(range(len(first_transmissions)))
