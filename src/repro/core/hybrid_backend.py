"""Hybrid fluid/packet backend: packet-exact foreground flows riding a
mean-field background aggregate.

The packet engine gives per-flow fidelity but tops out around N=10^4;
the PR 6 fluid backend reaches N=10^6 by giving up individual flows
entirely.  This module keeps both: the large background aggregate
evolves as the :class:`~repro.core.fluid_backend.FluidSolver` mean-field
system while K foreground flows stay packet-exact in the discrete-event
engine, the two coupled through the shared gateway state (the
test-particle construction the Baccelli--McDonald--Reynier mean-field
literature justifies: a tagged flow against the deterministic limit
trajectory).

Coupling, in both directions (DESIGN.md section 16):

* **Fluid -> packets.**  A foreground packet arriving at the gateway at
  time ``t`` is dropped with the fluid loss probability ``p(t)`` (a
  dedicated ``"hybrid/drop"`` RNG stream keeps this reproducible and
  independent of traffic randomness); if admitted it departs the
  gateway after waiting out the fluid backlog: service starts at
  ``max(t + q(t)/C, previous start)`` so departures stay FIFO, then one
  transmission time and the propagation delay follow as usual.  Both
  ``q(t)`` and ``p(t)`` are piecewise-linear interpolations of the RK4
  step endpoints (:class:`FluidTrajectory`).
* **Packets -> fluid.**  The gateway counts foreground packets offered
  per coupling interval; at each tick the measured rate becomes the
  solver's :attr:`~repro.core.fluid_backend.FluidSolver.extra_arrival`
  term for the next interval, so the background reacts to foreground
  load with a one-interval lag.

Lockstep execution needs no co-routines: the coupler is an ordinary
simulator event that advances the fluid system ``k`` RK4 steps every
``k * dt`` seconds of simulated time (``k`` from
``hybrid_coupling_dt``, default one step).  Because the tick at ``t``
integrates ``[t, t + k dt)`` *before* any packet in that window is
processed (earlier insertion at equal time), packet queries always hit
an already-computed trajectory segment.

Everything downstream of the gateway is the ordinary packet machinery:
per-flow cwnd/RTT/drop traces, obs probes, and burst forensics all see
the K foreground flows exactly as they would in a pure packet run --
which is the point.  Validity envelope and tolerance bands versus the
pure packet engine are documented in DESIGN.md section 16 and enforced
by ``tests/test_hybrid_differential.py``.
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np

from repro.core.fluid_backend import FluidSolver
from repro.experiments.results import ScenarioResult
from repro.experiments.scenario import Scenario
from repro.net.link import Interface
from repro.net.packet import Packet
from repro.net.queues import PacketQueue
from repro.sim.engine import Simulator

__all__ = [
    "FluidTrajectory",
    "HybridCoupler",
    "HybridGatewayQueue",
    "FluidCoupledInterface",
    "HybridScenario",
]


class FluidTrajectory:
    """Piecewise-linear view of the fluid queue/loss trajectory.

    Knot ``i`` sits at time ``i * dt``; knot 0 is the cold start
    ``(q, p) = (0, 0)`` and knot ``i + 1`` is appended after RK4 step
    ``i`` completes.  Queries interpolate linearly between the two
    straddling knots (O(1): the knot index is ``t / dt``) and clamp at
    the filled end, so a query can never read ahead of the integration.
    By construction every interpolated value lies within the bounds of
    its segment's endpoints -- the property
    ``tests/test_hybrid_properties.py`` pins.
    """

    def __init__(self, dt: float, steps: int) -> None:
        self.dt = dt
        self.q = np.zeros(steps + 1)
        self.p = np.zeros(steps + 1)
        self.filled = 0  # index of the last valid knot

    def append(self, q: float, p: float) -> None:
        """Record the endpoint of the next completed RK4 step."""
        self.filled += 1
        self.q[self.filled] = q
        self.p[self.filled] = p

    def _interp(self, arr: np.ndarray, t: float) -> float:
        pos = t / self.dt
        if pos <= 0.0:
            return float(arr[0])
        if pos >= self.filled:
            return float(arr[self.filled])
        lo = int(pos)
        frac = pos - lo
        return float(arr[lo] + (arr[lo + 1] - arr[lo]) * frac)

    def queue_at(self, t: float) -> float:
        """Fluid queue level (packets) at simulated time ``t``."""
        return max(self._interp(self.q, t), 0.0)

    def drop_prob_at(self, t: float) -> float:
        """Fluid loss/marking probability at simulated time ``t``."""
        return min(max(self._interp(self.p, t), 0.0), 1.0)


class HybridCoupler:
    """Advances the fluid solver in lockstep with the event engine.

    One simulator event per coupling interval: integrate ``k`` RK4
    steps, publish their endpoints to the :class:`FluidTrajectory`, and
    turn the foreground packets counted since the previous tick into
    the solver's ``extra_arrival`` feedback rate.
    """

    def __init__(self, solver: FluidSolver, coupling_dt: float = 0.0) -> None:
        solver.begin()
        self.solver = solver
        # Coupling interval quantized to whole RK4 steps (>= 1).
        self.k = max(int(round(coupling_dt / solver.dt)), 1) if coupling_dt > 0 else 1
        self.interval = self.k * solver.dt
        self.trajectory = FluidTrajectory(solver.dt, solver.steps)
        self.foreground_arrivals = 0

    # ------------------------------------------------------------------
    # Packet-side queries
    # ------------------------------------------------------------------
    def note_foreground_arrival(self, now: float) -> None:
        """Count one foreground packet offered to the gateway."""
        self.foreground_arrivals += 1

    def queue_delay(self, now: float) -> float:
        """Seconds a packet arriving now waits behind the fluid backlog."""
        return self.trajectory.queue_at(now) / self.solver.C

    def queue_level(self, now: float) -> int:
        """Fluid backlog in whole packets (shared-occupancy reporting)."""
        return int(round(self.trajectory.queue_at(now)))

    def drop_probability(self, now: float) -> float:
        """Loss probability a foreground packet faces right now."""
        return self.trajectory.drop_prob_at(now)

    # ------------------------------------------------------------------
    # Fluid-side stepping
    # ------------------------------------------------------------------
    def attach(self, sim: Simulator) -> None:
        """Schedule the first tick; must run before any packet arrives."""
        self._sim = sim
        sim.schedule(0.0, self._tick)

    def _tick(self) -> None:
        solver = self.solver
        # Feedback with a one-interval lag: the rate measured over the
        # interval that just ended drives the one starting now.
        solver.extra_arrival = self.foreground_arrivals / self.interval
        self.foreground_arrivals = 0
        target = min(solver.step_index + self.k, solver.steps)
        while solver.step_index < target:
            self.trajectory.append(*solver.step_once())
        if solver.step_index < solver.steps:
            self._sim.schedule(self.interval, self._tick)


class HybridGatewayQueue(PacketQueue):
    """The gateway discipline foreground packets see.

    Admission is the fluid loss probability ``p(t)`` (Bernoulli on the
    dedicated drop stream) -- droptail overflow and RED early marking
    are both already folded into ``p`` by the solver, so one queue class
    covers both disciplines.  ``__len__`` reports the *shared*
    occupancy (foreground packets queued plus the fluid backlog) so the
    forensics burst detector and queue probes watch the gateway the
    foreground actually experiences.
    """

    def __init__(
        self,
        capacity: int,
        coupler: HybridCoupler,
        rng: random.Random,
        name: str = "q:gateway->server",
    ) -> None:
        super().__init__(capacity, name=name)
        self.coupler = coupler
        self.rng = rng
        self._fluid_cause = (
            "fluid_red_early" if coupler.solver.queue == "red" else "fluid_overflow"
        )

    def __len__(self) -> int:
        return len(self._packets) + self.coupler.queue_level(self._now)

    def _admit(self, packet: Packet, now: float) -> bool:
        self.coupler.note_foreground_arrival(now)
        p = self.coupler.drop_probability(now)
        if p > 0.0 and self.rng.random() < p:
            self.last_drop_cause = self._fluid_cause
            return False
        # Backstop: the foreground's own slots cannot exceed the buffer
        # (the fluid p already models contention for the shared space).
        return len(self._packets) < self.capacity


class FluidCoupledInterface(Interface):
    """Gateway output port whose service rides the fluid backlog.

    An admitted packet starts service after the fluid queue ahead of it
    drains (``q(t)/C`` seconds), no earlier than the previous packet's
    service start plus its transmission time -- service starts are
    non-decreasing, so departures stay FIFO and ``dequeue`` always
    yields the departing packet.
    """

    def __init__(self, *args, coupler: HybridCoupler, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.coupler = coupler
        self._next_free = 0.0

    def send(self, packet: Packet) -> None:
        now = self._sim.now
        for hook in self._send_hooks:
            hook(packet, now)
        if not self.queue.enqueue(packet, now):
            return
        start = max(now + self.coupler.queue_delay(now), self._next_free)
        finish = start + self.transmission_time(packet)
        self._next_free = finish
        self._sim.schedule(finish - now, self._depart)

    def _depart(self) -> None:
        now = self._sim.now
        packet = self.queue.dequeue(now)
        if packet is None:  # pragma: no cover - FIFO invariant
            return
        self.packets_sent += 1
        self.bytes_sent += packet.size
        self._sim.schedule(self.delay, self.dst_node.receive, packet)


class HybridScenario(Scenario):
    """A packet scenario for the K foreground flows, co-simulated with
    the fluid background.

    Construction: the fluid solver and coupler are built first (from
    the *full* config: the background aggregate is
    ``hybrid_background_count`` flows), then the base class wires an
    ordinary K-client dumbbell around the coupled gateway queue, and
    :meth:`_build_network` swaps in the coupled interface before any
    monitor attaches or any flow starts.  Foreground clients reuse the
    packet backend's per-index RNG stream names, so flow ``i`` offers
    the same traffic here as in a pure packet run with the same seed --
    the flow-by-flow differential in tests/test_hybrid_differential.py
    depends on this.

    :meth:`run` returns the standard
    :class:`~repro.experiments.results.ScenarioResult`: foreground-scoped
    fields (``cov``, throughput, loss, ``per_flow``, recovery counters,
    latency, forensics) describe the K packet-exact flows, while
    ``mean_queue_length``/``utilization`` come from the shared fluid
    gateway state and ``config`` is the full-N hybrid config.
    """

    def __init__(self, config) -> None:
        config.validate()
        if config.backend != "hybrid":
            raise ValueError("HybridScenario requires backend='hybrid'")
        self.hybrid_config = config
        self.solver = FluidSolver(config, config.hybrid_background_count)
        self.coupler = HybridCoupler(self.solver, config.hybrid_coupling_dt)
        foreground = dataclasses.replace(
            config, n_clients=config.hybrid_foreground_flows
        )
        super().__init__(foreground)

    # ------------------------------------------------------------------
    def _make_bottleneck_queue(self) -> PacketQueue:
        return HybridGatewayQueue(
            self.config.buffer_capacity,
            self.coupler,
            rng=self.streams.stream("hybrid/drop"),
        )

    def _build_network(self):
        network = super()._build_network()
        old = network.bottleneck_interface
        coupled = FluidCoupledInterface(
            self.sim,
            old.name,
            old.dst_node,
            old.rate_bps,
            old.delay,
            old.queue,
            coupler=self.coupler,
        )
        network.gateway.attach_interface(network.SERVER, coupled)
        # First tick at t=0, inserted before any source's first packet
        # (equal-time events fire in insertion order).
        self.coupler.attach(self.sim)
        return network

    # ------------------------------------------------------------------
    def _collect(self, wall_time: float = float("nan")) -> ScenarioResult:
        result = super()._collect(wall_time)
        traj = self.solver.trajectory()
        duration = self.hybrid_config.duration
        # The gateway queue and utilization are properties of the shared
        # bottleneck: the fluid trajectory carries them (its arrival
        # term already includes the foreground feedback).  Everything
        # else -- cov, throughput, drops, latency, per_flow, forensics,
        # obs -- stays foreground-scoped from the base collection.
        served = float(traj["s"].sum() * self.solver.dt / duration)
        return dataclasses.replace(
            result,
            config=self.hybrid_config,
            mean_queue_length=float(traj["q"].mean()),
            utilization=served / self.solver.C if self.solver.C else 0.0,
        )

