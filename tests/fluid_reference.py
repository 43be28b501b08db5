"""Reference form of the mean-field right-hand side and RK4 step.

This is the textbook form of ``FluidSolver.rhs`` / ``begin`` /
``step_once`` -- one expression per term of DESIGN.md section 12,
every stage recomputing everything from scratch -- as it stood before
the production solver began hoisting and preallocating (PR 18), moved
here verbatim with ``self`` renamed to the argument ``s``.  It is the
oracle ``tests/test_fluid_bitexact.py`` holds the production solver
to, byte for byte.

``s`` is a :class:`~repro.core.fluid_backend.FluidSolver` used only as
the holder of the model parameters and the grid (``w``, ``dw``,
``half_lo``, ``half_hi``, ``half_frac``, ``to_mask``) plus its public
``rates()`` and ``loss_probability()``; the run state lives on the
same object under the names below, so give the reference an instance
of its own and never call that instance's own ``begin``/``step_once``.

A change that moves the solver's floats on purpose has to edit this
file, and say so; a change that claims bit-identity must not.
"""

import math

import numpy as np


def rhs(s, m: np.ndarray, z: float, q: float, v: float,
        p_fb: float, q_fb: float):
    """Time derivatives of (m, z, q) plus diagnostics.

    ``p_fb``/``q_fb`` are the one-RTT-delayed loss probability and
    queue level the windows react to.  Probability mass is conserved
    exactly: ``sum(dm) + dz == 0`` (the queue is not part of the
    distribution).
    """
    qc = min(max(q, 0.0), s.B)
    r, rtt = s.rates(qc)
    arrival = s.n * float(r @ m) + s.extra_arrival
    p = s.loss_probability(qc, v, arrival)
    accepted = arrival * (1.0 - p)
    dq = accepted - s.C
    if qc >= s.B - 1e-9 and dq > 0:
        dq = 0.0
    if qc <= 1e-9 and dq < 0:
        dq = 0.0
    # Window drift, reacting to one-RTT-old feedback.
    r_fb, rtt_fb = s.rates(q_fb)
    if s.protocol == "reno":
        a = r * (1.0 - p_fb) / s.w
    else:
        backlog = r_fb * (rtt_fb - s.rtt_prop)
        u = np.where(
            backlog < s.alpha, 1.0,
            np.where(backlog > s.beta, -1.0, 0.0),
        )
        a = u / rtt
    dm = np.zeros(s.M)
    # First-order upwind advection of the density.
    ap = np.maximum(a, 0.0)
    ap[-1] = 0.0
    am = np.minimum(a, 0.0)
    am[0] = 0.0
    flux_up = ap * m / s.dw
    flux_dn = am * m / s.dw
    dm -= flux_up
    dm[1:] += flux_up[:-1]
    dm += flux_dn
    dm[:-1] -= flux_dn[1:]
    # Loss-driven halving.  Droptail overflow clips whole windows at
    # the full buffer, hitting large-window flows in synchronized
    # bursts; RED's randomized early marks do not (sync factor 1).
    if s.queue != "red":
        sync = 1.0 + 2.0 * np.clip((s.w - 1.0) / 2.0, 0.0, 1.0)
    else:
        sync = 1.0
    mu = np.minimum(sync * p_fb * r, 1.0 / rtt)
    h = mu * m
    to_inflow = float(h[s.to_mask].sum())
    h_stay = h.copy()
    h_stay[s.to_mask] = 0.0
    dm -= h
    np.add.at(dm, s.half_lo, h_stay * (1.0 - s.half_frac))
    np.add.at(dm, s.half_hi, h_stay * s.half_frac)
    # Timeout compartment: inflow now, outflow from the delayed
    # pipeline (computed by run() from the entry history).
    tau = s.min_rto * (1.0 + 2.0 * p_fb) / max(1.0 - p_fb, 0.3) ** 2
    back = s._to_return
    dz = to_inflow - back
    dm[0] += back
    s._to_entry = to_inflow
    s._tau_now = tau
    return dm, dz, dq, arrival, p, accepted, float(h_stay.sum())


def begin(s) -> None:
    """Reset state for incremental stepping (see :func:`step_once`)."""
    s._m = np.zeros(s.M)
    s._m[0] = 1.0  # every flow starts at w = 1 (slow start from cold)
    s._z, s._q, s._v = 0.0, 0.0, 0.0
    steps = int(round(s.duration / s.dt))
    s.steps = steps
    s._t_arr = np.empty(steps)
    s._A_arr = np.empty(steps)
    s._q_arr = np.empty(steps)
    s._p_arr = np.empty(steps)
    s._s_arr = np.empty(steps)
    s._w_arr = np.empty(steps)
    s._z_arr = np.empty(steps)
    s._fr_arr = np.empty(steps)
    s._to_arr = np.empty(steps)
    s._p_hist = np.zeros(steps + 1)
    s._q_hist = np.zeros(steps + 1)
    s._in_hist = np.zeros(steps + 1)
    s._to_return = 0.0
    s.step_index = 0


def step_once(s) -> None:
    """Advance the system by one RK4 step of width ``dt``."""
    i = s.step_index
    m, z, q, v = s._m, s._z, s._q, s._v
    rtt_now = s.rtt_prop + q / s.C
    lag = max(int(round(rtt_now / s.dt)), 1)
    j = max(i - lag, 0)
    p_fb, q_fb = s._p_hist[j], s._q_hist[j]
    # RK4 on (m, z, q); the RED average uses an exact EWMA
    # sub-step afterwards (operator splitting keeps the slow
    # average from stiffening the stage equations).
    k1 = rhs(s, m, z, q, v, p_fb, q_fb)
    k2 = rhs(s, m + 0.5 * s.dt * k1[0], z + 0.5 * s.dt * k1[1],
             q + 0.5 * s.dt * k1[2], v, p_fb, q_fb)
    k3 = rhs(s, m + 0.5 * s.dt * k2[0], z + 0.5 * s.dt * k2[1],
             q + 0.5 * s.dt * k2[2], v, p_fb, q_fb)
    k4 = rhs(s, m + s.dt * k3[0], z + s.dt * k3[1],
             q + s.dt * k3[2], v, p_fb, q_fb)
    m = m + s.dt / 6.0 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
    z = z + s.dt / 6.0 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
    q = q + s.dt / 6.0 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
    # Projection: clip and renormalize so (m, z) stays a
    # probability distribution and q stays in the buffer.
    m = np.maximum(m, 0.0)
    q = min(max(q, 0.0), s.B)
    z = min(max(z, 0.0), 1.0)
    total = m.sum() + z
    if total > 0:
        m /= total
        z /= total
    arrival, p, accepted = k1[3], k1[4], k1[5]
    s._p_hist[i] = p
    s._q_hist[i] = q
    s._in_hist[i] = s._to_entry
    # Timeout returns: mass that entered z between 0.5 tau and
    # 1.5 tau ago comes back now (spread return kernel -- the
    # coarse 500 ms timers quantize individual RTOs, but backoff
    # state disperses them across about one tau).
    lag_lo = max(int(round(0.5 * s._tau_now / s.dt)), 1)
    lag_hi = max(int(round(1.5 * s._tau_now / s.dt)), lag_lo + 1)
    jlo, jhi = max(i - lag_hi, 0), max(i - lag_lo, 0)
    s._to_return = (
        float(s._in_hist[jlo:jhi].mean()) if jhi > jlo and i >= lag_lo else 0.0
    )
    if s.queue == "red":
        k = s.red_weight * max(arrival, 1e-9)
        v = q + (v - q) * math.exp(-k * s.dt)
    s._t_arr[i] = i * s.dt
    s._A_arr[i] = arrival
    s._q_arr[i] = q
    s._p_arr[i] = p
    s._z_arr[i] = z
    s._s_arr[i] = s.C if q > 1e-9 else min(accepted, s.C)
    s._fr_arr[i] = k1[6]
    s._to_arr[i] = s._to_entry
    act = m.sum()
    s._w_arr[i] = float(s.w @ m) / act if act > 0 else 1.0
    s._m, s._z, s._q, s._v = m, z, q, v
    s.step_index = i + 1


def trajectory(s):
    """The nine trajectory arrays plus the final ``(m, z)``."""
    return dict(t=s._t_arr, A=s._A_arr, q=s._q_arr,
                p=s._p_arr, s=s._s_arr, w=s._w_arr,
                z=s._z_arr, fr=s._fr_arr, to=s._to_arr,
                m=s._m, z_final=np.float64(s._z))
