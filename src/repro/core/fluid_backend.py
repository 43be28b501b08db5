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
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.theory import poisson_aggregate_cov

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
    """The discretized mean-field system for one scenario.

    Parameters mirror the physics fields of
    :class:`~repro.experiments.config.ScenarioConfig`;
    :func:`run_fluid_scenario` maps a config onto them.  ``loss_override``
    pins the loss probability to a constant (bypassing the queue/RED
    coupling) for property tests of the density dynamics alone.
    """

    def __init__(
        self,
        *,
        protocol: str = "reno",
        queue: str = "fifo",
        n_flows: int = 50,
        duration: float = 60.0,
        warmup: float = 0.0,
        rtt_prop: float = 0.404,
        capacity_pps: float = 375.0,
        buffer_packets: float = 50.0,
        per_flow_rate: float = 10.0,
        max_window: float = 20.0,
        vegas_alpha: float = 1.0,
        vegas_beta: float = 3.0,
        red_min_th: float = 10.0,
        red_max_th: float = 40.0,
        red_max_p: float = 0.1,
        red_weight: float = 0.002,
        min_rto: float = 1.0,
        n_bins: int = 96,
        dt: Optional[float] = None,
        loss_override: Optional[float] = None,
    ) -> None:
        if protocol not in ("reno", "vegas"):
            raise ValueError(f"fluid solver models reno/vegas, not {protocol!r}")
        if queue not in ("fifo", "red"):
            raise ValueError(f"fluid solver models fifo/red, not {queue!r}")
        if loss_override is not None and not 0.0 <= loss_override <= 1.0:
            # Reno's drift r (1 - p) / w is non-negative only for p <= 1.
            raise ValueError(f"loss_override is a probability, not {loss_override!r}")
        self.protocol, self.queue = protocol, queue
        self.n = n_flows
        self.duration, self.warmup = duration, warmup
        self.rtt_prop, self.C, self.B = rtt_prop, capacity_pps, float(buffer_packets)
        self.lam = per_flow_rate
        self.alpha, self.beta = vegas_alpha, vegas_beta
        self.red_min, self.red_max = red_min_th, red_max_th
        self.red_maxp, self.red_weight = red_max_p, red_weight
        self.min_rto = min_rto
        self.loss_override = loss_override
        self.M = n_bins
        self.wlo, self.whi = 1.0, float(max_window)
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
        # Everything below is fixed for the solver's lifetime and used
        # by every stage.  ``w`` increases, so the below-timeout bins
        # are the prefix ``[:kto]``.
        self._kto = kto = int(self.to_mask.sum())
        # Droptail overflow clips whole windows at the full buffer,
        # hitting large-window flows in synchronized bursts; RED's
        # randomized early marks do not (sync factor 1).
        self._sync = (
            1.0 + 2.0 * np.clip((self.w - 1.0) / 2.0, 0.0, 1.0)
            if queue != "red" else 1.0
        )
        # The halving scatter over the bins that stay (``[kto:]``): row
        # 0 lands on half_lo, row 1 on half_hi; flattened, np.add.at
        # walks all lo targets and then all hi targets, in bin order.
        self._half_idx = np.concatenate([self.half_lo[kto:], self.half_hi[kto:]])
        self._half_wt = np.stack([(1.0 - self.half_frac)[kto:], self.half_frac[kto:]])
        self._half_val = np.empty(self._half_idx.size)
        self._half_val2 = self._half_val.reshape(self._half_wt.shape)
        # Stage scratch (rates, fluxes, halving), the four RK4 slopes,
        # the stage state and the step accumulator.
        self._r, self._f, self._g, self._h, self._ms, self._acc = np.empty((6, self.M))
        self._k = tuple(np.empty((4, self.M)))
        # Vegas's upwind masks, set per step by _prepare().  Reno's drift
        # r (1 - p_fb) / w is never negative: it has no downward flux.
        self._up = self._dn = None
        # Timeout-return pipeline state (set per step by step_once()).
        self._to_return = 0.0
        self._to_entry = 0.0
        self._tau_now = min_rto
        #: Exogenous arrival rate (packets/s) added to the aggregate the
        #: queue sees -- the hybrid backend's foreground feedback term.
        #: The default 0.0 is exact (x + 0.0 is bit-identical for the
        #: non-negative aggregate), so pure-fluid runs are unchanged.
        self.extra_arrival = 0.0

    @classmethod
    def from_config(cls, config, n_flows: int) -> "FluidSolver":
        """The solver for ``config``'s cell with ``n_flows`` flows in
        the aggregate: every client under the fluid backend, the
        background under the hybrid one."""
        return cls(
            protocol=config.protocol,
            queue=config.queue,
            n_flows=n_flows,
            duration=config.duration,
            warmup=config.warmup,
            rtt_prop=config.rtt_prop,
            capacity_pps=config.bottleneck_capacity_pps,
            buffer_packets=config.buffer_capacity,
            per_flow_rate=config.per_client_rate,
            max_window=config.advertised_window,
            vegas_alpha=config.vegas_alpha,
            vegas_beta=config.vegas_beta,
            red_min_th=config.red_min_th,
            red_max_th=config.red_max_th,
            red_max_p=config.red_max_p,
            red_weight=config.red_weight,
            min_rto=config.min_rto,
        )

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
        self._prepare(p_fb, q_fb)
        dm = np.empty(self.M)
        return (dm, *self._stage(m, q, v, dm, report_fr=True))

    def _prepare(self, p_fb: float, q_fb: float) -> None:
        """Evaluate once what all four stages of a step share: every
        term of the one-RTT-old feedback alone."""
        self._grow = 1.0 - p_fb
        self._sync_p = self._sync * p_fb
        self._tau_now = self.min_rto * (1.0 + 2.0 * p_fb) / max(self._grow, 0.3) ** 2
        if self.protocol == "vegas":
            r_fb, rtt_fb = self.rates(q_fb)
            backlog = r_fb * (rtt_fb - self.rtt_prop)
            u = np.where(
                backlog < self.alpha, 1.0,
                np.where(backlog > self.beta, -1.0, 0.0),
            )
            # The drift is u / rtt with rtt the *stage's*; its upwind
            # split max(u / rtt, 0), min(u / rtt, 0) is these masks
            # (boundary fluxes zeroed) times the stage's 1 / rtt.
            self._up = np.maximum(u, 0.0)
            self._up[-1] = 0.0
            dn = np.minimum(u, 0.0)
            dn[0] = 0.0
            # No shrinking bin: the downward flux is all (signed)
            # zeros, and adding those changes nothing (see _stage).
            self._dn = dn if dn.any() else None

    def _stage(self, m: np.ndarray, q: float, v: float, dm: np.ndarray,
               report_fr: bool = False):
        """One right-hand-side evaluation at ``(m, q, v)`` under the
        feedback :meth:`_prepare` froze; ``dm`` receives the density
        derivative.  Returns ``(dz, dq, arrival, p, accepted, fr)``,
        ``fr`` (the fast-retransmit rate) only when asked for.

        Every float operation keeps the operands and the order of the
        textbook form in ``tests/fluid_reference.py``; DESIGN.md
        section 12 ("What a step costs") lists the rewrites allowed.
        """
        qc = min(max(q, 0.0), self.B)
        rtt = self.rtt_prop + qc / self.C
        inv_rtt = 1.0 / rtt
        r = np.divide(self.w, rtt, out=self._r)
        np.minimum(self.lam, r, out=r)
        arrival = self.n * float(r @ m) + self.extra_arrival
        p = self.loss_probability(qc, v, arrival)
        accepted = arrival * (1.0 - p)
        dq = accepted - self.C
        if qc >= self.B - 1e-9 and dq > 0:
            dq = 0.0
        if qc <= 1e-9 and dq < 0:
            dq = 0.0
        # Window drift, reacting to one-RTT-old feedback, and the
        # first-order upwind advection of the density it drives.
        f = self._f
        if self.protocol == "reno":
            np.multiply(r, self._grow, out=f)
            np.divide(f, self.w, out=f)
            f[-1] = 0.0
        else:
            np.multiply(self._up, inv_rtt, out=f)
        np.multiply(f, m, out=f)
        np.divide(f, self.dw, out=f)
        # 0.0 - f, not -f: no entry of dm is ever -0.0, which is what
        # makes adding a +-0.0 to it (here and below) skippable.
        np.subtract(0.0, f, out=dm)
        upper = dm[1:]
        upper += f[:-1]
        if self._dn is not None:
            g = np.multiply(self._dn, inv_rtt, out=self._g)
            np.multiply(g, m, out=g)
            np.divide(g, self.dw, out=g)
            np.add(dm, g, out=dm)
            lower = dm[:-1]
            lower -= g[1:]
        # Loss-driven halving; below the timeout window it feeds z.
        h = np.multiply(self._sync_p, r, out=self._h)
        np.minimum(h, inv_rtt, out=h)
        np.multiply(h, m, out=h)
        kto = self._kto
        to_inflow = float(h[:kto].sum())
        np.subtract(dm, h, out=dm)
        np.multiply(h[kto:], self._half_wt, out=self._half_val2)
        np.add.at(dm, self._half_idx, self._half_val)
        # Timeout compartment: inflow now, outflow from the delayed
        # pipeline (computed by step_once() from the entry history).
        back = self._to_return
        dm[0] += back
        self._to_entry = to_inflow
        fr = 0.0
        if report_fr:
            # Summed over the zero-prefixed full-length array: numpy's
            # pairwise sum groups by length, so h[kto:].sum() differs.
            h[:kto] = 0.0
            fr = float(h.sum())
        return to_inflow - back, dq, arrival, p, accepted, fr

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
        self._prepare(float(self._p_hist[j]), float(self._q_hist[j]))
        # RK4 on (m, z, q); the RED average uses an exact EWMA
        # sub-step afterwards (operator splitting keeps the slow
        # average from stiffening the stage equations).  No stage reads
        # z, so only its slopes are carried.
        k1, k2, k3, k4 = self._k
        ms, acc, half = self._ms, self._acc, 0.5 * dt
        dz1, dq1, arrival, p, accepted, fr = self._stage(m, q, v, k1, report_fr=True)
        np.add(m, np.multiply(k1, half, out=ms), out=ms)
        dz2, dq2 = self._stage(ms, q + half * dq1, v, k2)[:2]
        np.add(m, np.multiply(k2, half, out=ms), out=ms)
        dz3, dq3 = self._stage(ms, q + half * dq2, v, k3)[:2]
        np.add(m, np.multiply(k3, dt, out=ms), out=ms)
        dz4, dq4 = self._stage(ms, q + dt * dq3, v, k4)[:2]
        np.add(k1, np.multiply(k2, 2.0, out=acc), out=acc)
        np.add(acc, np.multiply(k3, 2.0, out=ms), out=acc)
        np.add(acc, k4, out=acc)
        np.add(m, np.multiply(acc, dt / 6.0, out=acc), out=m)
        z = z + dt / 6.0 * (dz1 + 2 * dz2 + 2 * dz3 + dz4)
        q = q + dt / 6.0 * (dq1 + 2 * dq2 + 2 * dq3 + dq4)
        # Projection: clip and renormalize so (m, z) stays a
        # probability distribution and q stays in the buffer.
        np.maximum(m, 0.0, out=m)
        q = min(max(q, 0.0), self.B)
        z = min(max(z, 0.0), 1.0)
        total = float(m.sum()) + z
        if total > 0:
            m /= total
            z /= total
        self._p_hist[i] = p
        self._q_hist[i] = q
        self._in_hist[i] = self._to_entry
        # Timeout returns: mass that entered z between 0.5 tau and
        # 1.5 tau ago comes back now (spread return kernel -- the
        # coarse 500 ms timers quantize individual RTOs, but backoff
        # state disperses them across about one tau).
        lag_lo = max(int(round(0.5 * self._tau_now / dt)), 1)
        lag_hi = max(int(round(1.5 * self._tau_now / dt)), lag_lo + 1)
        jlo, jhi = max(i - lag_hi, 0), max(i - lag_lo, 0)
        self._to_return = (
            float(self._in_hist[jlo:jhi].mean()) if jhi > jlo and i >= lag_lo else 0.0
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
        act = float(m.sum())
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
        """Fold a trajectory into the scalar metrics a sweep keeps."""
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
            mean_queue=float(traj["q"].mean()),
            loss_percent=100.0 * drops / arrivals if arrivals else 0.0,
            gateway_arrivals=int(round(arrivals)),
            gateway_drops=int(round(drops)),
            utilization=throughput_pps / self.C if self.C else 0.0,
            timeouts=int(round(timeouts)),
            fast_retransmits=int(round(fast_rtx)),
            mean_latency=mean_latency,
            max_latency=float(rtt_series.max()) if rtt_series.size else 0.0,
            steps=int(traj["t"].size),
        )


def run_fluid_scenario(config) -> "ScenarioResult":  # noqa: F821
    """Solve the mean-field system for one config and package the
    result as a :class:`~repro.experiments.scenario.ScenarioResult`
    with the same fields the packet engine fills, so sweeps, caching,
    figures, and the CLI work unchanged.

    Fluid-specific conventions: ``per_flow`` is empty (the limit has no
    individual flows, so fairness is NaN), ``dupacks``/``red_marks`` are
    0, ``events_executed`` counts RK4 steps, and ``cov`` includes the
    finite-rate Poisson sampling floor so it is directly comparable to
    the packet engine's binned-count c.o.v.
    """
    from repro.experiments.scenario import ScenarioResult
    from repro.obs.engineprof import peak_rss_kb

    config.validate()
    solver = FluidSolver.from_config(config, config.n_clients)
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
        cov=summary["cov"],
        # The fluid offered process is the exact Poisson superposition.
        offered_cov=analytic,
        analytic_cov=analytic,
        throughput_packets=summary["throughput_packets"],
        throughput_pps=summary["throughput_pps"],
        loss_percent=summary["loss_percent"],
        gateway_arrivals=summary["gateway_arrivals"],
        gateway_drops=summary["gateway_drops"],
        timeouts=summary["timeouts"],
        fast_retransmits=summary["fast_retransmits"],
        dupacks=0,
        mean_latency=summary["mean_latency"],
        max_latency=summary["max_latency"],
        bin_counts=summary["bin_counts"],
        offered_bin_counts=np.zeros(0),
        per_flow=[],
        mean_queue_length=summary["mean_queue"],
        red_marks=0,
        utilization=summary["utilization"],
        events_executed=summary["steps"],
        wall_time=wall_time,
        peak_rss_kb=peak_rss_kb(),
    )
