"""Deterministic fluid approximations of Reno and Vegas.

Reference [1] of the paper (Bonald, "Comparison of TCP Reno and TCP
Vegas via Fluid Approximation") analyzes both protocols as fluid
systems.  We provide the standard closed forms as analytic cross-checks
for the simulator's steady state:

* Reno's periodic-loss sawtooth: with loss probability ``p`` per packet
  the long-run throughput is approximately
  ``sqrt(3/2) / (rtt * sqrt(p))`` packets/s (Mathis et al. square-root
  law); the sawtooth oscillating between W/2 and W has a closed-form
  coefficient of variation of its instantaneous rate.
* Vegas's loss-free equilibrium: the window settles where the
  backlogged-packet estimate sits between alpha and beta, i.e. at
  ``W = rate * base_rtt + q`` with ``alpha <= q <= beta``.
"""

from __future__ import annotations

import math
from typing import Tuple


def reno_fluid_throughput(rtt: float, loss_probability: float) -> float:
    """Mathis square-root-law throughput in packets/second."""
    if rtt <= 0:
        raise ValueError("rtt must be positive")
    if not 0 < loss_probability <= 1:
        raise ValueError("loss probability must be in (0, 1]")
    return math.sqrt(1.5) / (rtt * math.sqrt(loss_probability))


def reno_ideal_sawtooth_cov() -> float:
    """c.o.v. of the instantaneous rate of an *ideal* AIMD sawtooth.

    The fluid window ramps linearly from W/2 to W, so the rate is a
    uniform ramp on [W/2, W]: mean 3W/4, variance W^2/48, hence

        c.o.v. = (W / sqrt(48)) / (3W/4) = 4 / (3 * sqrt(48)) ~= 0.1925.

    This is the *intrinsic* per-flow burstiness of Reno's probing even
    with perfectly periodic loss -- a floor the simulated aggregate
    cannot beat once every flow is in the AIMD regime and decisions are
    synchronized.

    Do not confuse this constant with the rate c.o.v. the mean-field
    backend (:mod:`repro.core.fluid_backend`) reports: that one is
    measured from the solved aggregate-rate trajectory (queue coupling,
    timeout droughts, finite-rate sampling floor and all) and varies
    with N, protocol, and gateway -- this closed form is valid only for
    a single backlogged flow under perfectly periodic loss.
    ``tests/test_fluid_modulation.py`` cross-checks the two.
    """
    return 4.0 / (3.0 * math.sqrt(48.0))


def reno_sawtooth_period(rtt: float, window_peak: float) -> float:
    """Duration of one W/2 -> W additive-increase ramp, in seconds.

    Congestion avoidance adds one packet per RTT, so the ramp takes
    ``W/2`` RTTs.
    """
    if rtt <= 0 or window_peak <= 0:
        raise ValueError("rtt and window must be positive")
    return (window_peak / 2.0) * rtt


def vegas_equilibrium_window(
    fair_rate: float, base_rtt: float, alpha: float = 1.0, beta: float = 3.0
) -> Tuple[float, float]:
    """The (min, max) equilibrium window of a Vegas flow.

    At equilibrium a Vegas flow keeps between ``alpha`` and ``beta``
    packets queued at the bottleneck, so its window is its fair share of
    the bandwidth-delay product plus that backlog:

        W in [fair_rate * base_rtt + alpha, fair_rate * base_rtt + beta].
    """
    if fair_rate <= 0 or base_rtt <= 0:
        raise ValueError("rate and base RTT must be positive")
    if alpha < 0 or beta < alpha:
        raise ValueError("need 0 <= alpha <= beta")
    bdp = fair_rate * base_rtt
    return (bdp + alpha, bdp + beta)


def vegas_equilibrium_queue(n_flows: int, alpha: float = 1.0, beta: float = 3.0) -> Tuple[float, float]:
    """Aggregate gateway backlog bounds with ``n`` Vegas flows.

    Section 3.4's argument: with 40 streams and (alpha, beta) = (1, 3),
    Vegas keeps 40..120 packets queued -- beyond a RED gateway's
    ``max_th`` of 40, so RED drops continuously.
    """
    if n_flows < 1:
        raise ValueError("need at least one flow")
    if alpha < 0 or beta < alpha:
        raise ValueError("need 0 <= alpha <= beta")
    return (n_flows * alpha, n_flows * beta)
