"""Property tests: the timer wheel against a sorted-list model.

The :class:`~repro.sim.wheel.TimerWheel` promises exactly one thing:
entries come out in ascending ``(time, priority, seq)`` order, identical
to a sorted list of the same entries.  Hypothesis drives the wheel with
generated push/pop interleavings whose times deliberately straddle all
four tiers (ready, level 0, level 1, overflow) and cross block
boundaries, then diffs every pop against the model.  Engine-level
``live_events`` accounting under cancels is checked against a plain
binary heap of the same keys, with debug-mode invariant recounts
enabled.
"""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.wheel import TimerWheel

# Times spanning every wheel tier at the default geometry (0.5 ms
# resolution: level 0 covers 128 ms, level 1 ~33.5 s).  Rounding to a
# few decimals manufactures exact ties so the tie-break path is hit.
_times = st.one_of(
    st.floats(0.0, 0.13, allow_nan=False),
    st.floats(0.0, 40.0, allow_nan=False).map(lambda t: round(t, 2)),
    st.floats(30.0, 500.0, allow_nan=False).map(lambda t: round(t, 1)),
)
_pushes = st.lists(st.tuples(_times, st.integers(0, 2)), max_size=80)


def _fill(pushes):
    wheel = TimerWheel()
    model = []
    for seq, (time, priority) in enumerate(pushes):
        entry = (time, priority, seq, object())
        wheel.push(entry)
        model.append(entry)
    model.sort()
    return wheel, model


@given(_pushes)
def test_drains_in_model_order(pushes):
    wheel, model = _fill(pushes)
    assert wheel.size == len(model)
    drained = []
    while wheel.peek() is not None:
        head = wheel.peek()
        assert wheel.pop() is head
        drained.append(head)
    assert drained == model
    assert wheel.size == 0 and wheel.peek() is None


@given(_pushes, st.lists(st.integers(0, 3), max_size=40))
def test_interleaved_push_pop_matches_model(pushes, pop_counts):
    """Pops interleaved with batches of pushes; new pushes never predate
    the cursor (the engine's no-scheduling-into-the-past contract)."""
    wheel = TimerWheel()
    model = []
    seq = 0
    now = 0.0
    batches = iter(pop_counts + [len(pushes)] * (len(pushes) + 1))
    remaining = list(reversed(pushes))
    while remaining or model:
        for _ in range(next(batches)):
            if not remaining:
                break
            time, priority = remaining.pop()
            entry = (max(time, now), priority, seq, object())
            seq += 1
            wheel.push(entry)
            model.append(entry)
        model.sort()
        if model:
            expected = model.pop(0)
            head = wheel.peek()
            assert head is expected
            assert wheel.pop() is head
            now = head[0]
        assert wheel.size == len(model)
    assert wheel.peek() is None


@given(st.integers(2, 40), st.floats(0.0, 40.0, allow_nan=False))
def test_fifo_tie_break_is_insertion_order(n, time):
    """Equal (time, priority) entries drain strictly in push order."""
    wheel = TimerWheel()
    entries = [(time, 0, seq, object()) for seq in range(n)]
    for entry in entries:
        wheel.push(entry)
    assert [wheel.pop() for _ in range(n) if wheel.peek()] == entries


@given(
    st.lists(st.tuples(_times, st.booleans()), max_size=40),
    st.floats(100.0, 600.0, allow_nan=False),
)
@settings(deadline=None)
def test_engine_live_events_accounting_matches_heap(schedule, horizon):
    """Random schedule/cancel traffic: the engine and a plain binary
    heap of ``(time, seq)`` keys agree on the fired sequence and the
    live counter, with invariant recounts (``debug=True``) after every
    event."""
    sim = Simulator(debug=True)
    log = []
    handles = []
    cancelled = set()
    for time, cancel_it in schedule:
        handles.append(sim.schedule_at(time, log.append, (time, len(handles))))
        if cancel_it and len(handles) >= 2:
            sim.cancel(handles[len(handles) // 2])
            cancelled.add(len(handles) // 2)
    heap = [(time, seq) for seq, (time, _) in enumerate(schedule)]
    heapq.heapify(heap)
    expected = [heapq.heappop(heap) for _ in range(len(heap))]
    expected = [key for key in expected if key[1] not in cancelled]
    due = [key for key in expected if key[0] <= horizon]

    sim.run(until=horizon)
    assert log == due
    assert sim.events_executed == len(due)
    assert sim.now == horizon
    assert sim.live_events == len(expected) - len(due)
    sim.run()  # drain the tail beyond the horizon
    assert log == expected
    assert sim.live_events == 0


def test_constructor_validation():
    with pytest.raises(ValueError):
        TimerWheel(start_time=-1.0)
    with pytest.raises(ValueError):
        TimerWheel(resolution=0.0)
    with pytest.raises(ValueError):
        TimerWheel(l0_slots=1)
    with pytest.raises(ValueError):
        TimerWheel(l1_slots=1)


def test_entries_iterates_every_tier():
    wheel = TimerWheel()
    times = [0.0, 0.05, 1.0, 40.0, 500.0]  # ready, L0, L1, L1-edge, overflow
    for seq, time in enumerate(times):
        wheel.push((time, 0, seq, object()))
    assert sorted(entry[0] for entry in wheel.entries()) == times
    assert wheel.size == len(times)
