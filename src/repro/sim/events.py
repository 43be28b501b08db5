"""Event objects scheduled on the simulator's calendar queue."""

from __future__ import annotations

from typing import Any, Callable, Tuple


class Event:
    """A callback scheduled to fire at a simulated time.

    Events fire in ``(time, priority, seq)`` order; the simulator queues
    that key as a tuple beside the event, so events themselves are
    never compared.  The sequence number is assigned by the simulator
    at scheduling time, which makes the execution order of same-time
    events deterministic (FIFO within a priority class) -- essential
    for reproducible runs.

    Events support O(1) cancellation: :meth:`cancel` marks the event dead
    and the simulator discards it when it reaches the head of the queue.

    ``owner`` back-references the simulator while the event sits in its
    queue (cleared when the event is popped), so cancelling a queued
    event keeps the simulator's live-event counter exact without any
    queue scan; cancelling an event that already fired is a no-op for
    the counter.

    Instances are free-listed by the simulator: after an event fires
    (or is discarded as cancelled) the run loop may disarm it
    (``callback``/``args`` cleared) and reuse the object for a later
    ``schedule`` call -- but only when a refcount check proves no
    component still holds the handle, so a held Event never changes
    identity under its owner (tests/test_event_pool.py).  The
    ``__slots__`` layout keeps the object dict-free: events are the
    hottest allocation in the simulator.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled", "owner")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[..., Any],
        args: Tuple[Any, ...] = (),
        priority: int = 0,
        owner: Any = None,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.owner = owner

    def cancel(self) -> None:
        """Mark this event dead; it will never fire (idempotent)."""
        if not self.cancelled:
            self.cancelled = True
            owner = self.owner
            if owner is not None:
                self.owner = None
                # Inlined owner._note_cancelled(): cancellation is a hot
                # path (pacing cancels per send) and the method call
                # costs more than the bookkeeping itself.
                owner._cancelled_pending += 1

    @property
    def pending(self) -> bool:
        """True if the event has not been cancelled."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.6f} seq={self.seq} {name} {state}>"
