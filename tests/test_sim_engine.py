"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.obs.engineprof import EngineProfiler
from repro.sim.engine import SimulationError, Simulator
from tests.helpers import KERNEL_MODES, kernel_in_mode


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_custom_start():
    assert Simulator(start_time=5.0).now == 5.0


def test_schedule_and_run_executes_callback():
    sim = Simulator()
    fired = []
    sim.schedule(1.5, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 1.5


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, 3)
    sim.schedule(1.0, order.append, 1)
    sim.schedule(2.0, order.append, 2)
    sim.run()
    assert order == [1, 2, 3]


def test_same_time_events_fire_in_insertion_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(1.0, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_priority_breaks_ties_before_insertion_order():
    sim = Simulator()
    order = []
    sim.schedule(1.0, order.append, "low", priority=1)
    sim.schedule(1.0, order.append, "high", priority=0)
    sim.run()
    assert order == ["high", "low"]


def test_run_until_stops_clock_at_until():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(5.0, fired.append, 5)
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0


def test_run_until_includes_events_exactly_at_until():
    sim = Simulator()
    fired = []
    sim.schedule(2.0, fired.append, 2)
    sim.run(until=2.0)
    assert fired == [2]


def test_run_until_advances_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_run_can_be_resumed():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    sim.schedule(3.0, fired.append, 3)
    sim.run(until=2.0)
    sim.run(until=4.0)
    assert fired == [1, 3]


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, fired.append, "x")
    sim.cancel(event)
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.cancel(event)
    sim.cancel(event)
    sim.run()


def test_events_scheduled_during_execution_fire():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(1.0, chain, 1)
    sim.run()
    assert fired == [1, 2, 3]
    assert sim.now == 3.0


def test_callback_scheduling_at_current_time_runs_this_pass():
    sim = Simulator()
    fired = []

    def now_event():
        sim.schedule(0.0, fired.append, "inner")

    sim.schedule(1.0, now_event)
    sim.run()
    assert fired == ["inner"]


def test_max_events_bounds_execution():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=4)
    assert fired == [0, 1, 2, 3]


def test_events_executed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_executed == 5


def test_step_returns_false_when_drained():
    sim = Simulator()
    assert sim.step() is False
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def nested():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.run()
    assert len(errors) == 1


def test_callbacks_see_correct_now():
    sim = Simulator()
    seen = []
    sim.schedule(1.25, lambda: seen.append(sim.now))
    sim.schedule(2.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.25, 2.5]


def test_live_events_excludes_cancelled_but_unpopped():
    sim = Simulator()
    events = [sim.schedule(float(i), lambda: None) for i in range(1, 5)]
    events[2].cancel()
    # The cancelled event stays queued (O(1) cancellation)...
    assert sim.pending_events == 4
    # ...but the live counter already excludes it.
    assert sim.live_events == 3


def test_live_events_counter_drains_with_pops():
    sim = Simulator()
    doomed = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    doomed.cancel()
    sim.run()
    assert sim.pending_events == 0
    assert sim.live_events == 0


def test_cancel_after_fire_does_not_skew_live_events():
    sim = Simulator()
    fired = sim.schedule(1.0, lambda: None)
    sim.run()
    fired.cancel()  # late cancel of an executed event: counter no-op
    sim.schedule(2.0, lambda: None)
    assert sim.live_events == 1
    assert sim.pending_events == 1


def test_cancel_is_idempotent_for_live_events():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.live_events == 1


def test_schedule_and_schedule_at_arm_equal_events():
    """``schedule(d, f, a)`` is ``schedule_at(now + d, f, a)``: same
    time, priority and args, consecutive sequence numbers."""
    sim = Simulator(start_time=0.3)
    fired = []
    relative = sim.schedule(0.1, fired.append, "a")
    absolute = sim.schedule_at(sim.now + 0.1, fired.append, "a")
    assert relative is not absolute
    assert relative.time == absolute.time == 0.3 + 0.1
    assert relative.priority == absolute.priority == 0
    assert absolute.seq == relative.seq + 1
    assert relative.args == absolute.args == ("a",)
    assert relative.callback == absolute.callback
    low = sim.schedule(0.1, fired.append, "b", priority=2)
    also_low = sim.schedule_at(sim.now + 0.1, fired.append, "b", priority=2)
    assert low.priority == also_low.priority == 2
    assert (low.seq, also_low.seq) == (absolute.seq + 1, absolute.seq + 2)
    sim.run()
    assert fired == ["a", "a", "b", "b"]
    assert sim.now == 0.3 + 0.1


def test_schedule_and_schedule_at_draw_on_one_event_pool():
    """An event recycled after firing is reused by whichever arming
    call comes next (skipped where the interpreter cannot pool)."""
    for arm_again in (
        lambda sim: sim.schedule(1.0, len, ()),
        lambda sim: sim.schedule_at(sim.now + 1.0, len, ()),
    ):
        sim = Simulator()
        sim.schedule(1.0, len, ())
        sim.run()
        if not sim._event_pool:  # pragma: no cover - non-CPython only
            pytest.skip("no sys.getrefcount: event pooling is off")
        (pooled,) = sim._event_pool
        event = arm_again(sim)
        assert event is pooled and not sim._event_pool
        assert (event.time, event.seq, event.cancelled) == (2.0, 1, False)
        assert event.owner is sim and event.pending


def test_scheduling_errors_name_the_offending_value():
    sim = Simulator(start_time=2.0)
    with pytest.raises(SimulationError, match=r"negative delay -0\.25"):
        sim.schedule(-0.25, lambda: None)
    with pytest.raises(SimulationError, match=r"at 1\.5; clock is already at 2\.0"):
        sim.schedule_at(1.5, lambda: None)
    assert sim.pending_events == 0


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_times_are_refused_by_name(bad):
    """NaN would slip past a plain ``time < now`` and corrupt the
    calendar's order; both it and +inf are refused naming the value,
    by ``schedule_at`` and by ``schedule`` through it."""
    sim = Simulator(start_time=2.0)
    message = rf"at {bad}: event times must be finite"
    with pytest.raises(SimulationError, match=message):
        sim.schedule_at(float(bad), lambda: None)
    with pytest.raises(SimulationError, match=message):
        sim.schedule(float(bad), lambda: None)
    with pytest.raises(SimulationError, match=r"at -inf; clock is already at 2\.0"):
        sim.schedule_at(float("-inf"), lambda: None)
    assert sim.pending_events == 0 and sim.now == 2.0


def test_run_until_nan_is_refused():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, 1)
    with pytest.raises(SimulationError, match=r"until nan: not a time"):
        sim.run(until=float("nan"))
    assert fired == [] and sim.now == 0.0 and sim.live_events == 1
    assert sim.run(until=2.0) == 2.0 and fired == [1]


@pytest.mark.parametrize("start", [float("nan"), float("inf"), -1.0])
def test_start_time_must_be_non_negative_and_finite(start):
    with pytest.raises(ValueError, match=rf"non-negative finite time, got {start!r}"):
        Simulator(start_time=start)


def test_now_reads_until_after_run_drains_early():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert sim.run(until=4.0) == 4.0
    assert sim.now == 4.0 and sim.pending_events == 0
    # ... and an `until` already behind the clock does not rewind it.
    assert sim.run(until=3.0) == 4.0
    assert sim.now == 4.0


# ----------------------------------------------------------------------
# The three modes of the one run loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", KERNEL_MODES)
def test_until_behind_the_clock_never_rewinds_it(mode):
    """With a later event pending, ``run(until=t)`` for ``t < now`` used
    to set ``now = t`` (the drained-queue branch alone had the guard),
    after which ``schedule_at`` accepted times in the past."""
    sim = kernel_in_mode(mode)
    fired = []
    sim.schedule_at(10.0, fired.append, 10)
    sim.schedule_at(20.0, fired.append, 20)
    assert sim.run(until=10.0) == 10.0
    assert sim.run(until=5.0) == 10.0
    assert sim.now == 10.0 and fired == [10]
    assert sim.events_executed == 1 and sim.live_events == 1
    with pytest.raises(SimulationError, match=r"at 7\.0; clock is already at 10\.0"):
        sim.schedule_at(7.0, fired.append, 7)
    # An event due at the clock itself is still behind such an `until`.
    sim.schedule_at(10.0, fired.append, "now")
    assert sim.run(until=5.0) == 10.0 and fired == [10]
    assert sim.run(until=10.0) == 10.0 and fired == [10, "now"]
    assert sim.run() == 20.0 and fired == [10, "now", 20]


@pytest.mark.parametrize("mode", KERNEL_MODES)
def test_step_is_not_reentrant_either(mode):
    sim = kernel_in_mode(mode)
    errors = []

    def nested():
        try:
            sim.step()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, nested)
    sim.schedule(2.0, lambda: None)
    assert sim.step() is True
    assert len(errors) == 1 and "not reentrant" in str(errors[0])
    # The refused step consumed nothing.
    assert sim.events_executed == 1 and sim.live_events == 1
    assert sim.step() is True and sim.step() is False


def test_profiled_step_notes_its_event_exactly_once():
    class Recording(EngineProfiler):
        def __init__(self):
            super().__init__()
            self.noted = []

        def note_event(self, callback, elapsed, heap_depth):
            self.noted.append((callback, heap_depth))
            super().note_event(callback, elapsed, heap_depth)

    sim = Simulator()
    profiler = sim.attach_profiler(Recording())
    first, second = (lambda: None), (lambda: None)
    sim.schedule(1.0, first)
    sim.schedule(2.0, second)
    sim.schedule(1.5, lambda: None).cancel()
    assert sim.step() is True
    # Depth as in a profiled run: what is queued once the event is popped.
    assert profiler.noted == [(first, 2)]
    assert sim.step() is True
    assert profiler.noted == [(first, 2), (second, 0)]
    assert sim.step() is False
    assert len(profiler.noted) == profiler.events == sim.events_executed == 2
    profile = profiler.profile()
    assert profile.sim_time == 2.0
    assert profile.run_wall_time >= profile.wall_time > 0.0


@pytest.mark.parametrize("mode", KERNEL_MODES)
def test_events_executed_is_exact_after_max_events_step_and_a_raise(mode):
    """The count covers every callback the loop entered: a bounded run,
    a step, and a callback that raised part-way through a run."""
    sim = kernel_in_mode(mode)
    fired = []
    for i in range(6):
        sim.schedule(float(i + 1), fired.append, i)
    sim.schedule(3.5, lambda: None).cancel()
    assert sim.run(max_events=3) == 3.0
    assert sim.events_executed == 3 and fired == [0, 1, 2]
    assert sim.step() is True
    assert sim.events_executed == 4 and fired == [0, 1, 2, 3]

    def boom():
        raise KeyError("boom")

    sim.schedule_at(4.5, boom)
    with pytest.raises(KeyError, match="boom"):
        sim.run()
    assert sim.events_executed == 5 and sim.now == 4.5
    assert sim.run() == 6.0
    assert sim.events_executed == 7 and fired == [0, 1, 2, 3, 4, 5]
