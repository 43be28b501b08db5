"""Regression tests for event/packet free-list pooling.

The engine recycles :class:`Event` objects (and, via the arg-recycler
hook, packets) only when ``sys.getrefcount`` proves the run loop holds
the last reference.  These tests pin the safety contract from the other
side: a handle somebody still holds is NEVER pooled, a pooled object is
always fully disarmed, a stale ``cancel()`` on a fired event cannot
corrupt the live-event accounting, and recycled packets carry no stale
state.  ``Simulator.check_invariants`` (the ``debug=True`` loop's
per-event check) is itself tested against hand-corrupted state.
"""

import pytest

from repro.net.packet import Packet, PacketFactory
from repro.sim.engine import _POOL_CAP, SimulationError, Simulator
from repro.sim.events import Event

#: Depth of the ``heap`` kernel's calendar before a test arms anything.
_FILLERS = 1000


@pytest.fixture(params=["heap", "wheel"])
def sim(request):
    """A kernel with an empty calendar (``wheel``) or a deep one
    (``heap``: ``_FILLERS`` far-future events, cancelled, whose handles
    the fixture holds, so every event a test arms is filed among a
    thousand others and the fillers are discarded -- never fired, never
    pooled -- when a run reaches them).  Pooling and the invariant
    recount must not care how deep the calendar is.  The ids are the
    names of the calendar tiers these two kernels once exercised."""
    sim = Simulator()
    fillers = []
    if request.param == "heap":
        fillers = [sim.schedule_at(1e6 + i, len, ()) for i in range(_FILLERS)]
        for event in fillers:
            event.cancel()
    yield sim
    assert all(event.cancelled for event in fillers)


# ----------------------------------------------------------------------
# Event pooling
# ----------------------------------------------------------------------
def test_fired_unreferenced_event_is_pooled_and_reused(sim):
    sim.schedule(0.0, lambda: None)
    sim.run()
    assert len(sim._event_pool) == 1
    pooled = sim._event_pool[0]
    assert pooled.callback is None and pooled.args is None
    reused = sim.schedule(1.0, lambda: None)
    assert reused is pooled
    assert not reused.cancelled and reused.owner is sim
    assert sim._event_pool == []


def test_held_handle_is_never_pooled(sim):
    held = sim.schedule(0.0, lambda: None)
    sim.run()
    assert sim._event_pool == []  # we still hold it
    fresh = [sim.schedule(float(i), lambda: None) for i in range(1, 20)]
    assert all(event is not held for event in fresh)
    # The held object keeps its identity and its fired state.
    assert held.owner is None and not held.cancelled


def test_cancelled_held_event_is_discarded_but_not_resurrected(sim):
    fired = []
    held = sim.schedule(5.0, fired.append, "boom")
    sim.schedule(6.0, fired.append, "ok")
    held.cancel()
    assert sim.live_events == 1
    sim.run()
    assert fired == ["ok"]
    assert held.cancelled  # stays dead in our hands
    assert sim._event_pool != []  # the fired event was poolable
    assert all(event is not held for event in sim._event_pool)
    fresh = [sim.schedule(float(i), fired.append, i) for i in range(1, 20)]
    assert all(event is not held for event in fresh)


def test_stale_cancel_after_firing_is_a_counter_noop(sim):
    held = sim.schedule(0.0, lambda: None)
    sim.run()
    assert sim.live_events == 0
    held.cancel()  # a Timer-style stale cancel of a dead handle
    assert sim.live_events == 0
    assert sim._cancelled_pending == 0
    sim.check_invariants()


def test_cancelled_unreferenced_event_pooled_on_discard(sim):
    sim.schedule(1.0, lambda: None).cancel()
    sim.schedule(2.0, lambda: None)
    sim.run()
    # Both the cancelled discard and the fired event were poolable.
    assert len(sim._event_pool) == 2
    sim.check_invariants()


def test_step_discards_cancelled_head_and_pools_it(sim):
    sim.schedule(0.5, lambda: None).cancel()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    assert sim.step()
    assert fired == [1]
    assert not sim.step()
    assert len(sim._event_pool) == 2


def test_pool_respects_cap(sim):
    n = _POOL_CAP + 64
    for i in range(n):
        sim.schedule(i * 1e-4, lambda: None)
    sim.run()
    assert len(sim._event_pool) == _POOL_CAP


def test_pool_reuse_resets_all_scheduling_fields(sim):
    first = sim.schedule(1.0, lambda: None, priority=1)
    seq = first.seq
    del first
    sim.run()
    log = []
    reused = sim.schedule(2.0, log.append, "x")
    assert reused.time == pytest.approx(3.0)
    assert reused.priority == 0
    assert reused.seq > seq
    assert not reused.cancelled
    sim.run()
    assert log == ["x"]


def test_pooling_disabled_without_getrefcount(monkeypatch):
    import repro.sim.engine as engine_mod

    monkeypatch.setattr(engine_mod, "_POOL_BASELINE", None)
    sim = Simulator()
    sim.schedule(0.0, lambda: None)
    sim.run()
    assert sim._event_pool == []


# ----------------------------------------------------------------------
# Invariant checking
# ----------------------------------------------------------------------
def test_check_invariants_catches_armed_pooled_event(sim):
    sim._event_pool.append(Event(0.0, 0, lambda: None, (), 0, None))
    with pytest.raises(SimulationError, match="armed"):
        sim.check_invariants()


def test_check_invariants_catches_queued_pooled_event(sim):
    event = sim.schedule(1.0, lambda: None)
    sim._event_pool.append(event)
    with pytest.raises(SimulationError):
        sim.check_invariants()


def test_check_invariants_catches_counter_divergence(sim):
    sim.schedule(1.0, lambda: None)
    sim._cancelled_pending += 1
    with pytest.raises(SimulationError, match="live_events"):
        sim.check_invariants()


def test_debug_loop_runs_invariants_clean():
    sim = Simulator(debug=True)
    keep = sim.schedule(3.0, lambda: None)
    for i in range(40):
        event = sim.schedule(i * 0.1, lambda: None)
        if i % 3 == 0:
            event.cancel()
    sim.run()
    assert sim.live_events == 0
    assert keep.owner is None


# ----------------------------------------------------------------------
# Packet recycling through the arg-recycler hook
# ----------------------------------------------------------------------
def test_unreferenced_packet_arg_is_recycled(sim):
    factory = PacketFactory()
    sim.set_arg_recycler(Packet, factory.recycle)
    sim.schedule(0.0, lambda pkt: None, factory.data(1, "a", "b", 1000, 0, 0.0))
    sim.run()
    assert len(factory._free) == 1


def test_held_packet_arg_is_not_recycled(sim):
    factory = PacketFactory()
    sim.set_arg_recycler(Packet, factory.recycle)
    packet = factory.data(1, "a", "b", 1000, 0, 0.0)
    captured = []
    sim.schedule(0.0, captured.append, packet)
    sim.run()
    assert factory._free == []  # the capture list still holds it
    assert captured == [packet]


def test_recycled_packet_carries_no_stale_state():
    factory = PacketFactory()
    dirty = factory.ack(
        7, "x", "y", ackno=9, now=3.0, ecn_echo=True, sack_blocks=((2, 4),)
    )
    dirty.ecn_ce = True
    uid = dirty.uid
    factory.recycle(dirty)
    fresh = factory.data(1, "a", "b", 1000, 5, 4.0)
    assert fresh is dirty  # reused object...
    assert fresh.uid == uid + 1  # ...but a brand-new packet
    assert fresh.is_data and fresh.seqno == 5 and fresh.ackno == -1
    assert not fresh.ecn_ce and not fresh.ecn_echo and not fresh.ecn_capable
    assert fresh.sack_blocks == ()
