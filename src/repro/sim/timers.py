"""Restartable one-shot timers built on the simulator.

TCP needs several of these (retransmission timer, delayed-ACK timer,
Vegas per-RTT timer); this class wraps the cancel/reschedule dance.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.engine import SimulationError, Simulator
from repro.sim.events import Event


class Timer:
    """A one-shot timer that can be (re)started and cancelled.

    The callback receives no arguments; bind state via a closure or a
    bound method.  Restarting a pending timer cancels the previous
    expiry, exactly like ns-2's ``TimerHandler::resched``.

    The held :class:`Event` handle is safe against the engine's event
    free list: the engine recycles an event only once nothing outside
    its run loop references it, so ``_event`` can never be silently
    rebound to an unrelated callback (see DESIGN.md section 10).
    """

    __slots__ = ("_sim", "_callback", "_event")

    def __init__(self, sim: Simulator, callback: Callable[[], Any]) -> None:
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None

    @property
    def pending(self) -> bool:
        """True if the timer is armed and has not yet fired."""
        event = self._event
        return event is not None and not event.cancelled

    @property
    def expiry(self) -> Optional[float]:
        """Absolute expiry time if armed, else None."""
        if self.pending:
            assert self._event is not None
            return self._event.time
        return None

    def start(self, delay: float) -> None:
        """Arm (or re-arm) the timer to fire ``delay`` seconds from now.

        :meth:`cancel` and :meth:`Simulator.schedule`, in place: a
        sender re-arms its retransmit timer on nearly every ACK."""
        event = self._event
        if event is not None:
            event.cancel()
            self._event = None
        if delay < 0:
            raise SimulationError(f"cannot schedule with negative delay {delay!r}")
        sim = self._sim
        self._event = sim.schedule_at(sim.now + delay, self._fire)

    #: Alias of :meth:`start`, for call sites that read better this way.
    restart = start

    def cancel(self) -> None:
        """Disarm the timer (idempotent)."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback()
