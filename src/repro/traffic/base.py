"""Traffic source base class."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.sim.engine import Simulator
from repro.transport.base import Agent

GenerateHook = Callable[[float, int], None]


class TrafficSource:
    """Base class: generates application packets into a transport agent.

    Subclasses implement :meth:`_next_gap`, the time until the next
    packet generation; the base class runs the generation loop from
    :meth:`start` to the optional stop time.  A source runs one loop:
    it starts once and is never restarted.
    """

    def __init__(self, sim: Simulator, agent: Agent, name: str = "source") -> None:
        self.sim = sim
        self.agent = agent
        self.name = name
        self.generated = 0
        self._hooks: List[GenerateHook] = []
        self._started = False
        self._stop_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def start(self, at: float = 0.0, stop_at: Optional[float] = None) -> None:
        """Begin generating at absolute time ``at`` (until ``stop_at``)."""
        if self._started:
            raise RuntimeError(f"source {self.name!r} already started")
        self._started = True
        self._stop_at = stop_at
        self.sim.schedule_at(max(at, self.sim.now) + self._next_gap(), self._tick)

    def add_hook(self, hook: GenerateHook) -> None:
        """Register ``hook(time, n_packets)`` called on each generation."""
        self._hooks.append(hook)

    # ------------------------------------------------------------------
    # Generation loop
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        sim = self.sim
        now = sim.now
        if self._stop_at is not None and now > self._stop_at:
            return
        self._emit(1)
        sim.schedule_at(now + self._next_gap(), self._tick)

    def _emit(self, n_packets: int) -> None:
        self.generated += n_packets
        for hook in self._hooks:
            hook(self.sim.now, n_packets)
        self.agent.app_arrival(n_packets)

    def _next_gap(self) -> float:
        """Time until the next generation event."""
        raise NotImplementedError
