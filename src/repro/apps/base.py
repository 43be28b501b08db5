"""The closed-loop application-workload abstraction.

An :class:`AppWorkload` sits where a :class:`~repro.traffic.base.
TrafficSource` sits -- it feeds application packets into a transport
:class:`~repro.transport.base.Agent` -- but unlike a source it *waits*:
each batch of packets it issues belongs to a :class:`WorkUnit` (an RPC
request, a shuffle phase, a transfer job), and the workload observes the
unit's completion through the sink's delivery hook before deciding what
to do next.  Offered load therefore responds to transport backpressure,
which is the defining property of real distributed-computing traffic.

Completion detection is counting-based: the sink reports its cumulative
count of in-order delivered packets, and units complete in FIFO issue
order once the count reaches their issue boundary.  Over an unreliable
transport (UDP) a unit whose packets were dropped would stall the flow
forever, so every unit carries a timeout; an expired unit is marked
failed and its undelivered packets are credited so later units still
complete (late-arriving in-flight packets can at worst complete a later
unit marginally early -- an accepted approximation, documented in
DESIGN.md).

Workloads deliberately duck-type the :class:`TrafficSource` recording
interface (``generated`` plus ``add_hook``), so the scenario counts the
*offered* (application-level) process of a closed-loop run through the
same hook (:class:`repro.core.cov.BinCounter`) as an open-loop one.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, List, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.transport.base import Agent

GenerateHook = Callable[[float, int], None]


class WorkUnit:
    """One in-flight application work unit (a batch of packets)."""

    __slots__ = ("size", "boundary", "issued_at", "timeout_event")

    def __init__(self, size: int, boundary: int, issued_at: float):
        self.size = size
        #: cumulative issued-packet count at which this unit is complete
        self.boundary = boundary
        self.issued_at = issued_at
        self.timeout_event: Optional[Event] = None


class AppWorkload:
    """Base class: issues work units into a transport, closed loop.

    Subclasses drive the workload by calling :meth:`_issue_unit` and
    implementing :meth:`_on_unit_complete` / :meth:`_on_unit_failed`;
    the base class does unit accounting, completion detection via the
    sink's delivery hook, and per-unit timeouts.
    """

    def __init__(
        self,
        sim: Simulator,
        agent: Agent,
        sink,
        name: str = "app",
        unit_timeout: float = 30.0,
    ) -> None:
        self.sim = sim
        self.agent = agent
        self.sink = sink
        self.name = name
        self.unit_timeout = unit_timeout
        # TrafficSource-compatible recording surface.
        self.generated = 0
        self._hooks: List[GenerateHook] = []
        # Closed-loop state.
        self.delivered = 0  # sink's cumulative in-order count
        self._credit = 0  # packets written off by unit timeouts
        self._pending: Deque[WorkUnit] = deque()
        self.units_issued = 0
        self.units_completed = 0
        self.units_failed = 0
        self._stop_at: Optional[float] = None
        self._started = False
        sink.add_delivery_hook(self._on_delivery)

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self, at: float = 0.0, stop_at: Optional[float] = None) -> None:
        """Begin the workload at absolute time ``at`` (issue no new
        units after ``stop_at``; in-flight units still complete)."""
        if self._started:
            raise RuntimeError(f"workload {self.name!r} already started")
        self._started = True
        self._stop_at = stop_at
        self.sim.schedule_at(max(at, self.sim.now), self._begin)

    @property
    def stopped(self) -> bool:
        """Whether the issue window has closed."""
        return self._stop_at is not None and self.sim.now >= self._stop_at

    def _begin(self) -> None:
        """Kick off the workload (subclasses override)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Recording surface (the TrafficSource hook interface)
    # ------------------------------------------------------------------
    def add_hook(self, hook: GenerateHook) -> None:
        """Register ``hook(time, n_packets)`` called on each issue."""
        self._hooks.append(hook)

    def _emit(self, n_packets: int) -> None:
        self.generated += n_packets
        for hook in self._hooks:
            hook(self.sim.now, n_packets)
        self.agent.app_arrival(n_packets)

    # ------------------------------------------------------------------
    # Work-unit lifecycle
    # ------------------------------------------------------------------
    def _issue_unit(self, size: int) -> WorkUnit:
        """Issue ``size`` packets as one unit; returns the unit."""
        if size < 1:
            raise ValueError("work units must carry at least one packet")
        unit = WorkUnit(
            size=size,
            boundary=self.generated + size,
            issued_at=self.sim.now,
        )
        self._pending.append(unit)
        self.units_issued += 1
        if self.unit_timeout > 0:
            unit.timeout_event = self.sim.schedule(
                self.unit_timeout, self._unit_timeout, unit
            )
        self._emit(size)
        return unit

    def _on_delivery(self, time: float, delivered_total: int) -> None:
        self.delivered = delivered_total
        self._drain(time)

    def _drain(self, time: float) -> None:
        while self._pending and self._pending[0].boundary <= self.delivered + self._credit:
            unit = self._pending.popleft()
            self._disarm(unit)
            self.units_completed += 1
            self._on_unit_complete(unit, time)

    @staticmethod
    def _disarm(unit: WorkUnit) -> None:
        """Cancel the unit's deadline and let go of the handle: the
        event carries the unit as its argument, so a kept handle is a
        unit <-> event cycle left for the cyclic collector."""
        if unit.timeout_event is not None:
            unit.timeout_event.cancel()
            unit.timeout_event = None

    def _unit_timeout(self, unit: WorkUnit) -> None:
        """Write off an expired unit (and any stuck ahead of it)."""
        if unit not in self._pending:
            return
        now = self.sim.now
        # Units ahead of an expired one were issued earlier with the same
        # timeout, so they are expired too; fail them head-first.
        while self._pending:
            head = self._pending.popleft()
            self._disarm(head)
            self.units_failed += 1
            self._on_unit_failed(head, now)
            if head is unit:
                break
        # Credit the undelivered packets so later units still complete.
        self._credit = max(self._credit, unit.boundary - self.delivered)
        self._drain(now)

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _on_unit_complete(self, unit: WorkUnit, time: float) -> None:
        """All of ``unit``'s packets were delivered in order."""
        raise NotImplementedError

    def _on_unit_failed(self, unit: WorkUnit, time: float) -> None:
        """``unit`` timed out before its packets were delivered."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.name!r} issued={self.units_issued} "
            f"completed={self.units_completed} failed={self.units_failed}>"
        )
