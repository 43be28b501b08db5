"""Bulk-synchronous-parallel (BSP) supersteps with a global barrier.

N workers repeat: *compute* (an exponentially distributed local phase,
whose spread creates natural stragglers), then *shuffle* (each worker
pushes ``shuffle_packets`` through its transport), then *barrier* (no
worker proceeds until every worker's shuffle has been delivered).  The
time a worker spends blocked between finishing its own shuffle and the
barrier releasing is its *barrier stall* -- the quantity TCP's bursty
service amplifies: one flow's timeout holds all N workers idle.

The barrier release is propagated to the workers after a modeled
reverse-path delay (the coordinator's release message travels the
uncongested ACK path).  A worker whose shuffle times out (possible over
UDP, where losses are never repaired) reports the barrier anyway as
*failed* so a single lossy flow cannot deadlock the computation.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.apps.base import AppWorkload, WorkUnit
from repro.sim.engine import Simulator
from repro.transport.base import Agent


class BspCoordinator:
    """The barrier: collects per-superstep completions from N workers."""

    def __init__(self, sim: Simulator, release_delay: float = 0.0) -> None:
        self.sim = sim
        self.release_delay = release_delay
        self.workers: List["BspWorkload"] = []
        self.supersteps_completed = 0
        self._arrived: Dict[int, float] = {}  # worker index -> finish time
        self._started = False
        self._stop_at: Optional[float] = None

    def register(self, worker: "BspWorkload") -> int:
        """Add a worker; returns its index."""
        if self._started:
            raise RuntimeError("cannot register workers after the job started")
        self.workers.append(worker)
        return len(self.workers) - 1

    def start(self, at: float = 0.0, stop_at: Optional[float] = None) -> None:
        """Launch superstep 0 on every registered worker."""
        if self._started:
            return
        if not self.workers:
            raise RuntimeError("a BSP job needs at least one worker")
        self._started = True
        self._stop_at = stop_at
        self.sim.schedule_at(max(at, self.sim.now), self._launch_superstep)

    def _launch_superstep(self) -> None:
        if self._stop_at is not None and self.sim.now >= self._stop_at:
            return
        self._arrived.clear()
        for worker in self.workers:
            worker.begin_superstep()

    def worker_done(self, index: int, time: float) -> None:
        """A worker's shuffle was delivered (or written off)."""
        if index in self._arrived:  # pragma: no cover - defensive
            return
        self._arrived[index] = time
        if len(self._arrived) < len(self.workers):
            return
        # Barrier reached: everyone's stall is the gap to the last arrival.
        release = time
        for worker in self.workers:
            worker.barrier_stalls.append(release - self._arrived[worker.index])
        self.supersteps_completed += 1
        self.sim.schedule(self.release_delay, self._launch_superstep)


class BspWorkload(AppWorkload):
    """One BSP worker: compute, shuffle, block on the barrier."""

    def __init__(
        self,
        sim: Simulator,
        agent: Agent,
        sink,
        rng: random.Random,
        coordinator: BspCoordinator,
        shuffle_packets: int = 30,
        compute_time: float = 0.5,
        name: str = "bsp",
        unit_timeout: float = 30.0,
    ) -> None:
        super().__init__(sim, agent, sink, name=name, unit_timeout=unit_timeout)
        if shuffle_packets < 1:
            raise ValueError("shuffles must carry at least one packet")
        self.rng = rng
        self.coordinator = coordinator
        self.shuffle_packets = shuffle_packets
        self.compute_time = compute_time
        self.index = coordinator.register(self)
        #: per-superstep barrier stall (release time minus own finish)
        self.barrier_stalls: List[float] = []
        #: shuffle-phase durations (issue to full delivery), seconds
        self.shuffle_times: List[float] = []

    def _begin(self) -> None:
        # The coordinator owns the superstep schedule; starting any one
        # worker arms the whole job exactly once.
        self.coordinator.start(at=self.sim.now, stop_at=self._stop_at)

    # ------------------------------------------------------------------
    def begin_superstep(self) -> None:
        """Coordinator callback: start this worker's compute phase."""
        if self.compute_time <= 0:
            compute = 0.0
        else:
            compute = self.rng.expovariate(1.0 / self.compute_time)
        self.sim.schedule(compute, self._shuffle)

    def _shuffle(self) -> None:
        self._issue_unit(self.shuffle_packets)

    def _on_unit_complete(self, unit: WorkUnit, time: float) -> None:
        self.shuffle_times.append(time - unit.issued_at)
        self.coordinator.worker_done(self.index, time)

    def _on_unit_failed(self, unit: WorkUnit, time: float) -> None:
        self.coordinator.worker_done(self.index, time)
