"""Mean-field fluid scenario backend: the N -> infinity limit object.

The packet engine's cost grows linearly in client count, topping out
around N=500-1000 per run.  McDonald & Reynier's mean-field analysis of
many TCP connections through a RED buffer shows that in the large-N
limit the *empirical distribution* of congestion windows evolves
deterministically, coupled to a scalar queue ODE.  This module solves
that limit system directly, so a "scenario" at N=10^6 costs the same
wall time as one at N=50 (the solver state is a window density, not N
flows).

The model (DESIGN.md section 12 gives the full derivation):

* ``m(w, t)``: probability density of congestion windows over
  ``[1, W_max]``, discretized into ``n_bins`` cells.  A separate scalar
  compartment ``z(t)`` holds the fraction of flows waiting out a
  retransmission timeout.
* Sending rate of a window-``w`` flow: ``r(w) = min(lambda, w / RTT)``
  with ``RTT = rtt_prop + q / C`` -- the paper's sources are rate-limited
  (Poisson at ``lambda = 1/mean_gap``), not backlogged, which is what
  couples burstiness to N in the first place.
* Queue ODE: ``dq/dt = A (1 - p) - C`` clamped to ``[0, B]``, where
  ``A = N * E[r]`` is the aggregate arrival rate and ``p`` the loss
  probability (droptail overflow or RED's marking curve on the EWMA
  average ``v``, integrated by an exact exponential sub-step).
* Reno drift: additive increase ``dw/dt = r (1 - p_fb) / w``; loss
  halves the window (an interpolated redistribution matrix moves
  density from ``w`` to ``w/2``); halvings that would land below the
  fast-retransmit threshold go to the timeout compartment instead.
* Vegas drift: ``dw/dt = +-1 / RTT`` by comparing the delayed backlog
  estimate ``d = r_fb (rtt_fb - rtt_prop)`` against ``alpha``/``beta``.
* Loss feedback is *one RTT old* (ring buffers of ``p`` and ``q``):
  this delay is the destabilizing element that produces the limit
  cycles -- the deterministic skeleton of the paper's burstiness.
* Droptail loss hits flows in bursts (whole windows clipped at the full
  buffer), so its effective per-flow loss is boosted by a
  window-dependent synchronization factor; RED's randomization
  deliberately desynchronizes (factor 1).
* Timeout droughts: mass entering ``z`` returns to ``w = 1`` spread
  over ``[0.5 tau, 1.5 tau]`` with
  ``tau = min_rto (1 + 2 p) / max(1 - p, 0.3)^2`` (coarse-timer backoff
  under loss), reproducing the synchronized slow-start restarts.

Integration is fixed-step RK4 with projection (density clipped to be
non-negative and renormalized with ``z``; queue clamped to ``[0, B]``);
no scipy dependency.  Validity envelope and tolerance bands versus the
packet engine are documented in DESIGN.md section 12 and enforced by
``tests/test_fluid_differential.py``.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from repro.core.theory import poisson_aggregate_cov
from repro.experiments.results import ScenarioResult
from repro.obs.engineprof import peak_rss_kb

if TYPE_CHECKING:
    from repro.experiments.config import ScenarioConfig

__all__ = ["FluidSolver", "run_fluid_scenario", "fluid_rate_cov"]

#: Window value below which a halving is modeled as a timeout instead of
#: a fast retransmit (fewer than 3 packets in flight cannot generate the
#: triple duplicate ACK).
_TIMEOUT_WINDOW = 3.0


def _smoothstep(x: float, lo: float, hi: float) -> float:
    t = min(max((x - lo) / (hi - lo), 0.0), 1.0)
    return t * t * (3.0 - 2.0 * t)


def fluid_rate_cov(
    times: np.ndarray,
    rates: np.ndarray,
    dt: float,
    bin_width: float,
    warmup: float,
    duration: float,
) -> np.ndarray:
    """Bin a continuous aggregate arrival-rate series into per-bin
    packet counts, the fluid analogue of the gateway arrival monitor.

    Returns the bin-count array; the caller computes c.o.v. from it.
    The counts measure pure deterministic modulation (the N -> infinity
    limit of c.o.v.); :meth:`FluidSolver.summarize` adds the sampling
    floor.
    """
    mask = times >= warmup
    nb = max(int((duration - warmup) / bin_width), 1)
    idx = np.minimum(((times[mask] - warmup) / bin_width).astype(int), nb - 1)
    return np.bincount(idx, weights=rates[mask] * dt, minlength=nb)


class FluidSolver:
    """The discretized mean-field system for ``n_flows`` flows of
    ``config``'s cell: every client under the fluid backend, the
    background under the hybrid one.

    The physics is read off the config; the keywords are test seams.
    ``n_bins`` and ``dt`` set the grid (``dt`` defaults to a CFL-limited
    step), and ``loss_override`` pins the loss probability to a constant
    (bypassing the queue/RED coupling) for property tests of the density
    dynamics alone.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        n_flows: int,
        *,
        n_bins: int = 96,
        dt: Optional[float] = None,
        loss_override: Optional[float] = None,
    ) -> None:
        protocol, queue, duration = config.protocol, config.queue, config.duration
        if protocol not in ("reno", "vegas"):
            raise ValueError(f"fluid solver models reno/vegas, not {protocol!r}")
        if queue not in ("fifo", "red"):
            raise ValueError(f"fluid solver models fifo/red, not {queue!r}")
        if loss_override is not None and not 0.0 <= loss_override <= 1.0:
            # Reno's drift r (1 - p) / w is non-negative only for p <= 1.
            raise ValueError(f"loss_override is a probability, not {loss_override!r}")
        self.protocol, self.queue = protocol, queue
        self.n = n_flows
        self.duration, self.warmup = duration, config.warmup
        self.rtt_prop, self.C = config.rtt_prop, config.bottleneck_capacity_pps
        self.B = float(config.buffer_capacity)
        self.lam = config.per_client_rate
        self.alpha, self.beta = config.vegas_alpha, config.vegas_beta
        self.red_min, self.red_max = config.red_min_th, config.red_max_th
        self.red_maxp, self.red_weight = config.red_max_p, config.red_weight
        self.min_rto = config.min_rto
        self.loss_override = loss_override
        self.M = n_bins
        self.wlo, self.whi = 1.0, float(config.advertised_window)
        self.dw = (self.whi - self.wlo) / self.M
        self.w = self.wlo + (np.arange(self.M) + 0.5) * self.dw
        if dt is None:
            # CFL-limited by the fastest advection (one window per RTT
            # across a bin) and capped well below the feedback delay.
            dt = min(0.4 * self.dw * self.rtt_prop, 0.25 * self.rtt_prop, 0.05)
        self.dt = dt
        self.steps = int(round(duration / dt))
        if self.steps < 1:
            raise ValueError(
                f"the fluid and hybrid backends integrate in RK4 steps of "
                f"{dt:.4g} s: duration {duration!r} is shorter than one step"
            )
        # Halving redistribution: mass at w_j lands at w_j / 2, linearly
        # interpolated between the two straddling bins.
        self.half_lo = np.zeros(self.M, dtype=int)
        self.half_hi = np.zeros(self.M, dtype=int)
        self.half_frac = np.zeros(self.M)
        for j in range(self.M):
            target = max(self.w[j] / 2.0, self.wlo)
            pos = (target - self.wlo) / self.dw - 0.5
            lo = int(np.floor(pos))
            frac = pos - lo
            self.half_lo[j] = min(max(lo, 0), self.M - 1)
            self.half_hi[j] = min(max(lo + 1, 0), self.M - 1)
            self.half_frac[j] = min(max(frac, 0.0), 1.0)
        self.to_mask = self.w < _TIMEOUT_WINDOW
        # Timeout-return pipeline state (set per step by step_once()).
        self._to_return, self._to_entry, self._tau_now = 0.0, 0.0, self.min_rto
        #: Exogenous arrival rate (packets/s) added to the aggregate the
        #: queue sees -- the hybrid backend's foreground feedback term.
        #: The default 0.0 is exact (x + 0.0 is bit-identical for the
        #: non-negative aggregate), so pure-fluid runs are unchanged.
        self.extra_arrival = 0.0
        # The four RK4 slopes, each with the views its stage writes
        # through and the coefficient to the next stage's point.
        self._k = tuple(np.empty((4, self.M)))
        self._slopes = [(k, k[1:], k[:-1], c)
                        for k, c in zip(self._k, (0.5 * dt, 0.5 * dt, dt, None))]
        self._stages = self._bind()

    # ------------------------------------------------------------------
    def loss_probability(self, q: float, v: float, arrival_rate: float) -> float:
        """Instantaneous loss probability from queue state.

        Droptail: the overflow fraction ``1 - C/A`` smoothly switched on
        as the queue reaches the full buffer.  RED: the marking curve on
        the EWMA average ``v``, plus overflow when the instantaneous
        queue still fills.
        """
        if self.loss_override is not None:
            return self.loss_override
        p_tail = max(0.0, 1.0 - self.C / max(arrival_rate, self.C)) * _smoothstep(
            q, self.B - 2.0, self.B - 0.25
        )
        if self.queue == "red":
            if v < self.red_min:
                p_red = 0.0
            elif v < self.red_max:
                p_red = self.red_maxp * (v - self.red_min) / (self.red_max - self.red_min)
            else:
                p_red = 1.0
            return min(1.0, p_red + p_tail * (1.0 - p_red))
        return p_tail

    def rates(self, q: float):
        """Per-bin sending rates and the common RTT at queue level q."""
        rtt = self.rtt_prop + min(max(q, 0.0), self.B) / self.C
        return np.minimum(self.lam, self.w / rtt), rtt

    def rhs(self, m: np.ndarray, z: float, q: float, v: float,
            p_fb: float, q_fb: float):
        """Time derivatives of (m, z, q) plus diagnostics.

        ``p_fb``/``q_fb`` are the one-RTT-delayed loss probability (in
        ``[0, 1]``) and queue level the windows react to.  Probability
        mass is conserved exactly: ``sum(dm) + dz == 0`` (the queue is
        not part of the distribution).  This is the one-off form of
        what :meth:`step_once` evaluates four times per step.
        """
        dm = np.empty(self.M)
        dzs, dqs, first = self._stages(
            self, m, q, v, p_fb, q_fb, [(dm, dm[1:], dm[:-1], None)])
        return (dm, dzs[0], dqs[0], *first)

    def _bind(self):
        """Bind the right-hand side to this solver, once: the grid, the
        constants, the scratch buffers and every slice view a stage
        reads become locals of one kernel,
        ``stages(solver, m, q, v, p_fb, q_fb, slopes)``.  It evaluates the
        one-RTT-old feedback terms once, then one right-hand side per
        ``(dm, dm[1:], dm[:-1], c)`` of ``slopes`` -- the first at
        ``(m, q)``, each next one at ``(m + c dm, q + c dq)`` of the one
        before -- with no attribute lookup and no call into a numpy
        Python wrapper.  It returns the stages' ``dz`` and ``dq`` lists
        and the first stage's ``(arrival, p, accepted, fr)``.

        Every float operation keeps the operands and the order of the
        textbook form in ``tests/fluid_reference.py``; DESIGN.md
        section 12 ("What a step costs") lists the rewrites allowed.
        """
        # Unbound, so that the kernel holds no reference to the solver
        # (a cycle would leave every solver's arrays to the cyclic GC).
        loss, rates = type(self).loss_probability, type(self).rates
        w, dw, n, C, B, lam = self.w, self.dw, self.n, self.C, self.B, self.lam
        rtt_prop, min_rto, reno = self.rtt_prop, self.min_rto, self.protocol == "reno"
        alpha, beta = self.alpha, self.beta
        add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
        minimum, less, greater = np.minimum, np.less, np.greater
        add_reduce, add_at, any_of = np.add.reduce, np.add.at, np.logical_or.reduce
        # ``w`` increases, so the below-timeout bins are the prefix [:kto].
        kto = int(self.to_mask.sum())
        # Droptail overflow clips whole windows at the full buffer,
        # hitting large-window flows in synchronized bursts; RED's
        # randomized early marks do not (sync factor 1).
        sync = (
            1.0 + 2.0 * np.clip((w - 1.0) / 2.0, 0.0, 1.0)
            if self.queue != "red" else 1.0
        )
        # The halving scatter over the bins that stay ([kto:]): row 0
        # lands on half_lo, row 1 on half_hi; flattened, np.add.at walks
        # all lo targets and then all hi targets, in bin order.
        half_idx = np.concatenate([self.half_lo[kto:], self.half_hi[kto:]])
        half_wt = np.stack([(1.0 - self.half_frac)[kto:], self.half_frac[kto:]])
        half_val = np.empty(half_idx.size)
        half_val2 = half_val.reshape(half_wt.shape)
        # Stage scratch (rates, fluxes, halving) and the stage state.
        r, f, g, h, ms = np.empty((5, self.M))
        f_lo, g_hi, h_to, h_stay = f[:-1], g[1:], h[:kto], h[kto:]

        def stages(solver, m, q, v, p_fb, q_fb, slopes):
            grow = 1.0 - p_fb
            sync_p = sync * p_fb
            tau = min_rto * (1.0 + 2.0 * p_fb) / max(grow, 0.3) ** 2
            # Reno's drift r (1 - p_fb) / w is never negative: no downward flux.
            dn = None
            if not reno:
                r_fb, rtt_fb = rates(solver, q_fb)
                backlog = r_fb * (rtt_fb - rtt_prop)
                # u = +1 below alpha, else -1 above beta, else 0; the
                # drift is u / rtt with rtt the *stage's*, and its upwind
                # split max(u / rtt, 0), min(u / rtt, 0) is these masks
                # (boundary fluxes zeroed) times the stage's 1 / rtt.
                rising = less(backlog, alpha)
                up = rising * 1.0
                up[-1] = 0.0
                dn = 0.0 - (greater(backlog, beta) & ~rising)
                dn[0] = 0.0
                # No shrinking bin: the downward flux is all (signed)
                # zeros, and adding those changes nothing.
                if not any_of(dn):
                    dn = None
            extra, back = solver.extra_arrival, solver._to_return
            dzs, dqs, x, xq = [], [], m, q
            for dm, dm_hi, dm_lo, c in slopes:
                qc = min(max(xq, 0.0), B)
                rtt = rtt_prop + qc / C
                inv_rtt = 1.0 / rtt
                divide(w, rtt, out=r)
                minimum(lam, r, out=r)
                arrival = n * float(r @ x) + extra
                p = loss(solver, qc, v, arrival)
                accepted = arrival * (1.0 - p)
                dq = accepted - C
                if qc >= B - 1e-9 and dq > 0:
                    dq = 0.0
                if qc <= 1e-9 and dq < 0:
                    dq = 0.0
                # Window drift, reacting to one-RTT-old feedback, and the
                # first-order upwind advection of the density it drives.
                if reno:
                    multiply(r, grow, out=f)
                    divide(f, w, out=f)
                    f[-1] = 0.0
                else:
                    multiply(up, inv_rtt, out=f)
                multiply(f, x, out=f)
                divide(f, dw, out=f)
                # 0.0 - f, not -f: no entry of dm is ever -0.0, which is
                # what makes adding a +-0.0 to it (here and below) skippable.
                subtract(0.0, f, out=dm)
                add(dm_hi, f_lo, out=dm_hi)
                if dn is not None:
                    multiply(dn, inv_rtt, out=g)
                    multiply(g, x, out=g)
                    divide(g, dw, out=g)
                    add(dm, g, out=dm)
                    subtract(dm_lo, g_hi, out=dm_lo)
                # Loss-driven halving; below the timeout window it feeds z.
                multiply(sync_p, r, out=h)
                minimum(h, inv_rtt, out=h)
                multiply(h, x, out=h)
                to_inflow = float(add_reduce(h_to))
                subtract(dm, h, out=dm)
                multiply(h_stay, half_wt, out=half_val2)
                add_at(dm, half_idx, half_val)
                # Timeout compartment: inflow now, outflow from the
                # delayed pipeline (computed by step_once() from the
                # entry history).
                dm[0] += back
                if not dzs:
                    # The fast-retransmit rate, stage 1's only: summed over
                    # the zero-prefixed full-length array, as numpy's
                    # pairwise sum groups by length.
                    h_to.fill(0.0)
                    first = arrival, p, accepted, float(add_reduce(h))
                dzs.append(to_inflow - back)
                dqs.append(dq)
                if c is not None:
                    add(m, multiply(dm, c, out=ms), out=ms)
                    x, xq = ms, q + c * dq
            solver._to_entry, solver._tau_now = to_inflow, tau
            return dzs, dqs, first

        return stages

    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Reset state for incremental stepping (see :meth:`step_once`).

        :meth:`run` is ``begin()`` followed by ``steps`` calls to
        ``step_once()``; the hybrid backend interleaves those steps with
        the discrete-event engine instead, adjusting
        :attr:`extra_arrival` between coupling intervals.  The float
        operations of a step, and their order, are those of the
        textbook RK4 loop: ``tests/test_fluid_bitexact.py`` compares
        every trajectory array with it bit for bit.
        """
        self._m = np.zeros(self.M)
        self._m[0] = 1.0  # every flow starts at w = 1 (slow start from cold)
        self._z, self._q, self._v = 0.0, 0.0, 0.0
        steps = self.steps
        self._t_arr = np.arange(steps) * self.dt
        self._A_arr = np.empty(steps)
        self._q_arr = np.empty(steps)
        self._p_arr = np.empty(steps)
        self._s_arr = np.empty(steps)
        self._w_arr = np.empty(steps)
        self._z_arr = np.empty(steps)
        self._fr_arr = np.empty(steps)
        self._to_arr = np.empty(steps)
        self._p_hist = np.zeros(steps + 1)
        self._q_hist = np.zeros(steps + 1)
        self._in_hist = np.zeros(steps + 1)
        self._to_return = 0.0
        self.step_index = 0

    def step_once(self) -> Tuple[float, float]:
        """Advance the system by one RK4 step of width ``dt``; returns
        the step's endpoint ``(q, p)``."""
        i = self.step_index
        m, z, q, v, dt = self._m, self._z, self._q, self._v, self.dt
        rtt_now = self.rtt_prop + q / self.C
        lag = max(int(round(rtt_now / dt)), 1)
        j = max(i - lag, 0)
        # RK4 on (m, z, q); the RED average uses an exact EWMA
        # sub-step afterwards (operator splitting keeps the slow
        # average from stiffening the stage equations).  No stage reads
        # z, so only its slopes are carried.
        (dz1, dz2, dz3, dz4), (dq1, dq2, dq3, dq4), (arrival, p, accepted, fr) = (
            self._stages(self, m, q, v, float(self._p_hist[j]),
                         float(self._q_hist[j]), self._slopes))
        # k1 + 2 k2 + 2 k3 + k4, in that order, accumulated into k1.
        k1, k2, k3, k4 = self._k
        np.add(k1, np.multiply(k2, 2.0, out=k2), out=k1)
        np.add(k1, np.multiply(k3, 2.0, out=k3), out=k1)
        np.add(k1, k4, out=k1)
        np.add(m, np.multiply(k1, dt / 6.0, out=k1), out=m)
        z = z + dt / 6.0 * (dz1 + 2 * dz2 + 2 * dz3 + dz4)
        q = q + dt / 6.0 * (dq1 + 2 * dq2 + 2 * dq3 + dq4)
        # Projection: clip and renormalize so (m, z) stays a
        # probability distribution and q stays in the buffer.
        np.maximum(m, 0.0, out=m)
        q = min(max(q, 0.0), self.B)
        z = min(max(z, 0.0), 1.0)
        total = float(np.add.reduce(m)) + z
        if total > 0:
            m /= total
            z /= total
        self._p_hist[i] = p
        self._q_hist[i] = q
        self._in_hist[i] = self._to_entry
        # Timeout returns: mass that entered z between 0.5 tau and
        # 1.5 tau ago comes back now (spread return kernel -- the
        # coarse 500 ms timers quantize individual RTOs, but backoff
        # state disperses them across about one tau).  The mean is
        # numpy's own: add.reduce(x) / len(x).
        lag_lo = max(int(round(0.5 * self._tau_now / dt)), 1)
        lag_hi = max(int(round(1.5 * self._tau_now / dt)), lag_lo + 1)
        jlo, jhi = max(i - lag_hi, 0), max(i - lag_lo, 0)
        self._to_return = (
            float(np.add.reduce(self._in_hist[jlo:jhi]) / (jhi - jlo))
            if jhi > jlo and i >= lag_lo else 0.0
        )
        if self.queue == "red":
            k = self.red_weight * max(arrival, 1e-9)
            v = q + (v - q) * math.exp(-k * dt)
        self._A_arr[i] = arrival
        self._q_arr[i] = q
        self._p_arr[i] = p
        self._z_arr[i] = z
        self._s_arr[i] = self.C if q > 1e-9 else min(accepted, self.C)
        self._fr_arr[i] = fr
        self._to_arr[i] = self._to_entry
        act = float(np.add.reduce(m))
        self._w_arr[i] = float(self.w @ m) / act if act > 0 else 1.0
        self._z, self._q, self._v = z, q, v
        self.step_index = i + 1
        return q, p

    def trajectory(self) -> Dict[str, np.ndarray]:
        """The trajectory arrays accumulated so far (run() returns the
        full-duration view; a hybrid run reads it after the last step)."""
        self._final_m, self._final_z = self._m, self._z
        return dict(t=self._t_arr, A=self._A_arr, q=self._q_arr,
                    p=self._p_arr, s=self._s_arr, w=self._w_arr,
                    z=self._z_arr, fr=self._fr_arr, to=self._to_arr)

    def run(self) -> Dict[str, np.ndarray]:
        """Integrate to ``duration``; returns the trajectory arrays."""
        self.begin()
        while self.step_index < self.steps:
            self.step_once()
        return self.trajectory()

    # ------------------------------------------------------------------
    def summarize(self, traj: Dict[str, np.ndarray],
                  bin_width: float) -> Dict[str, float]:
        """Fold a trajectory into the scalar metrics a sweep keeps, keyed
        by the :class:`~repro.experiments.results.ScenarioResult` fields
        they fill (``events_executed`` counts RK4 steps)."""
        counts = fluid_rate_cov(
            traj["t"], traj["A"], self.dt, bin_width,
            self.warmup, self.duration,
        )
        mean = float(counts.mean())
        # The fluid rate is a point-process intensity: finite-rate
        # Poisson sampling adds var = mean on top of the deterministic
        # modulation (even a constant intensity gives var = mean).
        var = float(counts.var()) + mean
        cov = math.sqrt(var) / mean if mean > 0 else float("nan")
        throughput_pps = float(traj["s"].sum() * self.dt / self.duration)
        arrivals = float(traj["A"].sum() * self.dt)
        drops = float((traj["A"] * traj["p"]).sum() * self.dt)
        fast_rtx = float(traj["fr"].sum() * self.dt) * self.n
        timeouts = float(traj["to"].sum() * self.dt) * self.n
        # Accepted-traffic-weighted mean RTT (application-to-ACK latency
        # has no retransmission tail in the fluid limit).
        accepted = traj["A"] * (1.0 - traj["p"])
        weight = accepted.sum()
        rtt_series = self.rtt_prop + traj["q"] / self.C
        mean_latency = (
            float((rtt_series * accepted).sum() / weight) if weight > 0 else 0.0
        )
        return dict(
            cov=cov,
            bin_counts=counts,
            throughput_pps=throughput_pps,
            throughput_packets=int(round(throughput_pps * self.duration)),
            mean_queue_length=float(traj["q"].mean()),
            loss_percent=100.0 * drops / arrivals if arrivals else 0.0,
            gateway_arrivals=int(round(arrivals)),
            gateway_drops=int(round(drops)),
            utilization=throughput_pps / self.C if self.C else 0.0,
            timeouts=int(round(timeouts)),
            fast_retransmits=int(round(fast_rtx)),
            mean_latency=mean_latency,
            max_latency=float(rtt_series.max()) if rtt_series.size else 0.0,
            events_executed=int(traj["t"].size),
        )


def run_fluid_scenario(config) -> ScenarioResult:
    """Solve the mean-field system for one config and package the
    result as a :class:`~repro.experiments.results.ScenarioResult`
    with the same fields the packet engine fills, so sweeps, caching,
    figures, and the CLI work unchanged.

    Fluid-specific conventions: ``per_flow`` is empty (the limit has no
    individual flows, so fairness is NaN), ``dupacks``/``red_marks`` are
    0, ``events_executed`` counts RK4 steps, and ``cov`` includes the
    finite-rate Poisson sampling floor so it is directly comparable to
    the packet engine's binned-count c.o.v.
    """
    config.validate()
    solver = FluidSolver(config, config.n_clients)
    start = time.perf_counter()
    traj = solver.run()
    summary = solver.summarize(traj, config.effective_bin_width)
    wall_time = time.perf_counter() - start
    if config.traffic == "poisson":
        analytic = poisson_aggregate_cov(
            config.n_clients, config.per_client_rate, config.effective_bin_width
        )
    else:
        analytic = float("nan")
    return ScenarioResult(
        config=config,
        **summary,
        # The fluid offered process is the exact Poisson superposition.
        offered_cov=analytic,
        analytic_cov=analytic,
        dupacks=0,
        offered_bin_counts=np.zeros(0),
        per_flow=[],
        red_marks=0,
        wall_time=wall_time,
        peak_rss_kb=peak_rss_kb(),
    )
