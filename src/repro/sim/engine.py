"""The discrete-event simulator (event loop).

Components schedule callbacks; the loop pops them in ascending
``(time, priority, seq)`` order -- a total order, since ``seq`` is
unique -- and invokes them.  All model time is in seconds.  Pending
events live in one binary heap, a plain list kept by :mod:`heapq`, of
``(time, priority, seq, event)`` tuples: pushes, pops and every
ordering decision (a tuple comparison that never reaches the event)
run in C.  The order itself is specified by a sorted list of the same
keys; ``tests/test_timer_wheel.py`` and
``tests/test_engine_differential.py`` check the kernel against that
model.

To cut allocation churn the engine free-lists :class:`Event` objects
(and, via :meth:`Simulator.set_arg_recycler`, the caller's payload
objects such as packets).  An object is recycled only when
``sys.getrefcount`` proves the run loop holds the last reference, so a
component that keeps an event handle (e.g. a pacing list or a timer)
can never observe its event being resurrected for an unrelated
callback; on interpreters without ``getrefcount`` pooling is disabled.

Observability: an :class:`~repro.obs.engineprof.EngineProfiler` can be
attached with :meth:`Simulator.attach_profiler`, after which every
executed callback is timed and attributed to a category; with none
attached the loop reads no clock.  Constructing with ``debug=True``
makes the same loop recount the live/pending-event invariants after
every event (see :meth:`Simulator.check_invariants`).
"""

from __future__ import annotations

import sys
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.events import Event

_getrefcount = getattr(sys, "getrefcount", None)

#: Free-list bound: events are tiny, but a drained queue should not pin
#: an unbounded pile of dead objects.
_POOL_CAP = 4096

#: A ledger row name, not a choice: the performance ledger names its
#: ``variant.<engine>.<scheduler>.wall_s`` rows from this tuple, and
#: there is nothing left to select (the calendar is one binary heap).
SCHEDULERS = ("wheel",)


def _frame_local_refcount() -> Optional[int]:
    """Refcount of an object held by exactly one frame local, as seen by
    ``sys.getrefcount`` called from that frame.

    This is the event-recycling guard's baseline: at the recycle point
    the run loop holds the popped event in one local, so a count above
    this baseline proves some component still holds a handle and the
    event must not be pooled.  Measuring the baseline (instead of
    hardcoding 2) keeps the guard correct if the interpreter's calling
    convention changes; without ``getrefcount`` (PyPy) pooling is off.
    """
    if _getrefcount is None:
        return None
    probe = object()
    return _getrefcount(probe)


def _tuple_member_refcount() -> Optional[int]:
    """Baseline for an object referenced only by one tuple, observed
    while iterating that tuple (the arg-recycling check context)."""
    if _getrefcount is None:
        return None
    count = None
    for item in (object(),):
        count = _getrefcount(item)
    return count


_POOL_BASELINE = _frame_local_refcount()
_ARG_BASELINE = _tuple_member_refcount()


class SimulationError(RuntimeError):
    """Raised on scheduling errors (e.g. scheduling into the past)."""


class Simulator:
    """Event-driven simulation kernel.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, callback, arg1, arg2)
        sim.run(until=10.0)

    The kernel guarantees:

    * events fire in non-decreasing time order;
    * events scheduled for the same time fire in (priority, insertion)
      order, which makes runs deterministic;
    * cancelled events never fire.

    ``start_time`` must be non-negative and finite; anything else
    raises ``ValueError``.  Event times must be finite too (a NaN key
    would silently corrupt the heap's order): ``schedule``/
    ``schedule_at`` refuse NaN and ±inf, and ``run`` refuses
    ``until=nan``, each naming the value.

    ``now`` is the current simulated time in seconds: a plain attribute
    (components read it a few times per packet), written by the run
    loop alone and read-only to everything else by convention.
    """

    def __init__(self, start_time: float = 0.0, debug: bool = False) -> None:
        self.now = float(start_time)
        if not 0.0 <= self.now < inf:
            raise ValueError(
                f"start_time must be a non-negative finite time, got {start_time!r}"
            )
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._debug = bool(debug)
        self._seq = 0
        self._events_executed = 0
        self._cancelled_pending = 0
        self._running = False
        self._profiler: Optional[Any] = None
        self._event_pool: List[Event] = []
        self._recycle_type: Optional[type] = None
        self._recycle_fn: Optional[Callable[[Any], None]] = None

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        """Number of events executed so far (diagnostics).

        The run loop counts in a local and adds it here when it returns
        or raises, so a callback reading this mid-run sees the count as
        of that run's start."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of *queued* events, cancelled-but-unpopped included.

        This is the raw queue size -- a capacity/memory measure.  A
        cancelled event stays queued until it reaches the front
        (O(1) cancellation), so this over-counts the events that will
        actually fire; use :attr:`live_events` for that.
        """
        return len(self._heap)

    @property
    def live_events(self) -> int:
        """Number of queued events that will actually fire.

        Exactly ``pending_events`` minus the cancelled events not yet
        discarded from the queue; maintained in O(1) per cancel/pop.
        """
        return self.pending_events - self._cancelled_pending

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def profiler(self) -> Optional[Any]:
        """The attached :class:`EngineProfiler`, if any."""
        return self._profiler

    def attach_profiler(self, profiler: Any) -> Any:
        """Attach an engine profiler (replacing any previous one).

        Subsequent :meth:`run`/:meth:`step` calls route every executed
        event through ``profiler.note_event``.  Returns the profiler.
        """
        self._profiler = profiler
        return profiler

    def detach_profiler(self) -> None:
        """Remove the profiler; later runs time nothing."""
        self._profiler = None

    # NOTE: Event.cancel() increments ``_cancelled_pending`` directly
    # (inlined for speed); pops that discard cancelled events decrement
    # it.  ``live_events`` is the only consumer.

    # ------------------------------------------------------------------
    # Pooling
    # ------------------------------------------------------------------
    def set_arg_recycler(
        self, arg_type: type, recycle: Callable[[Any], None]
    ) -> None:
        """Free-list the caller's event payloads of ``arg_type``.

        After each executed event, any argument whose concrete type is
        exactly ``arg_type`` and whose refcount proves the engine holds
        the last reference is handed to ``recycle`` for reuse (the
        scenario wires the packet factory's free list here: its
        ``recycle`` is the list's own ``append``, so the hand-over
        enters no Python frame).  Payloads
        still referenced anywhere -- a retransmission buffer, a trace, a
        test fixture -- are never recycled.  No-op on interpreters
        without ``sys.getrefcount``.
        """
        if _ARG_BASELINE is None:  # pragma: no cover - non-CPython only
            return
        self._recycle_type = arg_type
        self._recycle_fn = recycle

    def shutdown(self) -> None:
        """Discard everything still scheduled, and every free list.

        Pending events are disarmed in place, not merely dropped:
        components keep handles to their own events (a timer to its
        expiry, a work unit to its deadline) and an armed event points
        back at its component through the bound callback, so every
        held handle closes a reference cycle that only the cyclic
        collector could free.  For a run that is over and about to be
        thrown away (see ``Scenario.release``).
        """
        for entry in self._heap:
            event = entry[3]
            event.callback = event.args = event.owner = None
        self._heap.clear()
        self._cancelled_pending = 0
        del self._event_pool[:]
        self._recycle_type = self._recycle_fn = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now.

        The arming itself is :meth:`schedule_at`'s; per-packet call
        sites skip this wrapper and pass it ``now + delay`` themselves.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        return self.schedule_at(self.now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = 0,
    ) -> Event:
        """Schedule ``callback(*args)`` to fire at absolute time ``time``."""
        if not self.now <= time < inf:
            if time < self.now:
                raise SimulationError(
                    f"cannot schedule event at {time!r}; "
                    f"clock is already at {self.now!r}"
                )
            raise SimulationError(
                f"cannot schedule event at {time!r}: event times must be finite"
            )
        seq = self._seq
        self._seq = seq + 1
        pool = self._event_pool
        if pool:
            event = pool.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
            event.owner = self
        else:
            # owner passed positionally: keyword calls cost ~10x more per
            # Event and this is the hottest allocation in the simulator.
            event = Event(time, seq, callback, args, priority, self)
        heappush(self._heap, (time, priority, seq, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously scheduled event (idempotent)."""
        event.cancel()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next live event.  Returns False if none remain."""
        before = self._events_executed
        self.run(max_events=1)
        return self._events_executed != before

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Run the event loop.

        Args:
            until: stop once the next event would fire strictly after this
                time; the clock is advanced to ``until`` (never moved
                back: an ``until`` behind the clock executes nothing).
                If None, run until the queue drains; NaN is refused.
            max_events: optional safety valve on the number of events.

        Returns:
            The simulated time when the loop stopped.

        The one loop has two per-event branches, both decided by locals
        read once here: the callback is timed and reported only when a
        profiler is attached, and :meth:`check_invariants` runs after
        every event only under ``debug=True``.  The head of the calendar
        is read in place (``heap[0]``) and popped with ``heappop``; only
        ``event`` and, until its guard has run, ``dead`` ever name a
        popped event, which is what the refcount guards count on.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if until != until:
            raise SimulationError(f"cannot run until {until!r}: not a time")
        profiler = self._profiler
        clock = None if profiler is None else profiler.clock
        debug = self._debug
        heap = self._heap
        pool = self._event_pool
        getrefcount = _getrefcount
        baseline = _POOL_BASELINE
        arg_baseline = _ARG_BASELINE
        recycle_type = self._recycle_type
        recycle = self._recycle_fn
        executed = 0
        if clock is not None:
            profiler.begin_run(self.now)
            loop_start = clock()
        self._running = True
        try:
            if debug:
                self.check_invariants()
            while True:
                if max_events is not None and executed >= max_events:
                    break
                while heap and heap[0][3].cancelled:
                    self._cancelled_pending -= 1
                    dead = heappop(heap)[3]
                    if (
                        baseline is not None
                        and len(pool) < _POOL_CAP
                        and getrefcount(dead) == baseline
                    ):
                        dead.callback = None
                        dead.args = None
                        pool.append(dead)
                    # A ``dead`` left bound would make the event it names
                    # fail the guard below when it is re-armed and fires
                    # (tests/test_run_loop_modes.py pins the pool sizes).
                    dead = None
                if not heap or (until is not None and heap[0][0] > until):
                    if until is not None and until > self.now:
                        self.now = until
                    break
                event = heappop(heap)[3]
                event.owner = None
                self.now = event.time
                # Counted before the callback runs, so a callback that
                # raises is counted too; written back in ``finally``.
                executed += 1
                if clock is None:
                    event.callback(*event.args)
                else:
                    depth = len(heap)
                    start = clock()
                    event.callback(*event.args)
                    profiler.note_event(event.callback, clock() - start, depth)
                if recycle_type is not None:
                    for arg in event.args:
                        if (
                            type(arg) is recycle_type
                            and getrefcount(arg) == arg_baseline
                        ):
                            recycle(arg)
                if (
                    baseline is not None
                    and len(pool) < _POOL_CAP
                    and getrefcount(event) == baseline
                ):
                    event.callback = None
                    event.args = None
                    pool.append(event)
                if debug:
                    self.check_invariants()
        finally:
            self._events_executed += executed
            self._running = False
            if clock is not None:
                profiler.add_run_wall(clock() - loop_start)
                profiler.end_run(self.now)
        return self.now

    def check_invariants(self) -> None:
        """Recount the queue and verify the O(1) event accounting.

        Raises :class:`SimulationError` if the incrementally maintained
        ``pending_events``/``live_events`` counters diverge from a full
        recount, or if the event free list holds an event that is still
        armed or still queued (a resurrected event).  Cheap enough for
        tests, far too slow for real runs -- under ``debug=True`` the
        run loop calls it after every event.
        """
        queued = [entry[3] for entry in self._heap]
        live = sum(1 for event in queued if not event.cancelled)
        if len(queued) != self.pending_events:
            raise SimulationError(
                f"pending_events diverged: counter says {self.pending_events}, "
                f"recount says {len(queued)}"
            )
        if live != self.live_events:
            raise SimulationError(
                f"live_events diverged: counter says {self.live_events}, "
                f"recount says {live} ({len(queued)} queued)"
            )
        pooled = {id(event) for event in self._event_pool}
        for event in self._event_pool:
            if (
                event.callback is not None
                or event.args is not None
                or event.owner is not None
            ):
                raise SimulationError(f"pooled event is still armed: {event!r}")
        for event in queued:
            if id(event) in pooled:
                raise SimulationError(f"queued event is also pooled: {event!r}")
