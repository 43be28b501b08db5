"""Property tests: the simulator's event calendar against a sorted-list model.

Whatever structure holds the pending events, the kernel promises one
thing about them: live events fire in ascending ``(time, priority,
seq)`` order, identical to a sorted list of the same keys.  Hypothesis
drives :class:`~repro.sim.engine.Simulator` through its public API only
-- ``schedule_at``, ``cancel``, ``run(until=...)``,
``run(max_events=k)``, ``step``, ``pending_events``, ``live_events``
and ``shutdown`` -- with times from the next instant to hundreds of
seconds out, and diffs every firing, the clock and the counters
against that model, with the invariant recount of ``debug=True`` after
every event.  (The module keeps its name from the timer wheel it was
first written for.)
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationError, Simulator

# Times from the next instant out to far future.  Rounding to a few
# decimals manufactures exact ties so the tie-break path is hit.
_times = st.one_of(
    st.floats(0.0, 0.13, allow_nan=False),
    st.floats(0.0, 40.0, allow_nan=False).map(lambda t: round(t, 2)),
    st.floats(30.0, 500.0, allow_nan=False).map(lambda t: round(t, 1)),
)
_pushes = st.lists(st.tuples(_times, st.integers(0, 2)), max_size=80)

_script = st.lists(
    st.one_of(
        st.tuples(st.just("at"), _times, st.integers(0, 2)),
        st.tuples(st.just("cancel"), st.integers(0, 200)),
        st.tuples(st.just("until"), st.floats(0.0, 600.0, allow_nan=False)),
        st.tuples(st.just("max_events"), st.integers(0, 4)),
    ),
    max_size=120,
)


def _fill(pushes):
    """Arm every push on a fresh kernel; return it, its firing log and
    the model: the sorted ``(time, priority, seq)`` keys."""
    sim = Simulator(debug=True)
    fired = []
    model = []
    for seq, (time, priority) in enumerate(pushes):
        sim.schedule_at(time, fired.append, seq, priority=priority)
        model.append((time, priority, seq))
    model.sort()
    return sim, fired, model


@given(_pushes)
@settings(deadline=None)
def test_drains_in_model_order(pushes):
    sim, fired, model = _fill(pushes)
    assert sim.pending_events == sim.live_events == len(model)
    sim.run()
    assert fired == [key[2] for key in model]
    assert sim.events_executed == len(model)
    assert sim.now == (model[-1][0] if model else 0.0)
    assert sim.pending_events == 0


@given(_script)
@settings(deadline=None)
def test_interleaved_push_pop_matches_model(script):
    """Scheduling, cancels, ``run(until)`` and ``run(max_events=k)`` in
    any interleaving; new events never predate the clock (the kernel's
    no-scheduling-into-the-past contract)."""
    sim = Simulator(debug=True)
    fired, expected, model, handles = [], [], [], []
    now = 0.0
    for op, *args in script:
        if op == "at":
            time, priority = max(args[0], now), args[1]
            seq = len(handles)
            handles.append(sim.schedule_at(time, fired.append, seq, priority=priority))
            model.append((time, priority, seq))
        elif op == "cancel":
            if handles:
                seq = args[0] % len(handles)
                sim.cancel(handles[seq])  # a no-op once it has fired
                model = [key for key in model if key[2] != seq]
        else:
            model.sort()
            if op == "until":
                due = sum(1 for key in model if key[0] <= args[0])
                assert sim.run(until=args[0]) == max(now, args[0])
                now = max(now, args[0])
            else:
                due = min(args[0], len(model))
                sim.run(max_events=args[0])
                if due:
                    now = model[due - 1][0]
            expected += [key[2] for key in model[:due]]
            del model[:due]
        assert fired == expected
        assert sim.now == now
        assert sim.live_events == len(model)
        assert sim.pending_events >= len(model)
    sim.run()
    assert fired == expected + [key[2] for key in sorted(model)]
    assert sim.live_events == sim.pending_events == 0


@given(st.integers(2, 40), st.floats(0.0, 40.0, allow_nan=False))
@settings(deadline=None)
def test_fifo_tie_break_is_insertion_order(n, time):
    """Equal (time, priority) events fire strictly in scheduling order,
    one per ``step``."""
    sim = Simulator()
    fired = []
    for seq in range(n):
        sim.schedule_at(time, fired.append, seq)
    steps = 0
    while sim.step():
        steps += 1
        assert fired == list(range(steps))
    assert steps == n and sim.now == time


@given(
    st.lists(st.tuples(_times, st.booleans()), max_size=40),
    st.floats(100.0, 600.0, allow_nan=False),
)
@settings(deadline=None)
def test_engine_live_events_accounting_matches_heap(schedule, horizon):
    """Random schedule/cancel traffic: the engine and a sorted list of
    ``(time, seq)`` keys agree on the fired sequence and the live
    counter, with invariant recounts (``debug=True``) after every
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
    expected = sorted((time, seq) for seq, (time, _) in enumerate(schedule))
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
    for start in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="non-negative"):
            Simulator(start_time=start)
    sim = Simulator(start_time=12.5)
    assert sim.now == 12.5 and sim.pending_events == 0
    with pytest.raises(SimulationError, match="clock is already at 12.5"):
        sim.schedule_at(12.0, lambda: None)
    fired = []
    sim.schedule_at(12.5, fired.append, "start")
    assert sim.run() == 12.5 and fired == ["start"]


def test_entries_iterates_every_tier():
    """``pending_events`` counts every queued event, cancelled ones
    included, wherever it is due; ``shutdown`` disarms each of them in
    place and leaves nothing to run."""
    sim = Simulator()
    times = [0.0, 0.05, 1.0, 40.0, 500.0, 5e6]
    handles = [sim.schedule_at(time, lambda: None) for time in times]
    handles[2].cancel()
    assert sim.pending_events == len(times)
    assert sim.live_events == len(times) - 1
    sim.shutdown()
    assert sim.pending_events == sim.live_events == 0
    for event in handles:
        assert event.callback is None and event.args is None
        assert event.owner is None
    assert sim.run() == 0.0 and sim.events_executed == 0
