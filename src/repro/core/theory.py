"""Closed-form baselines: Section 2.2's Poisson curve and fluid steady states.

The unmodulated aggregate of ``N`` independent Poisson sources of rate
``lambda`` observed over windows of width ``T`` is Poisson with mean
``N * lambda * T``; a Poisson count has variance equal to its mean, so

    c.o.v. = sqrt(N lambda T) / (N lambda T) = 1 / sqrt(N lambda T).

This is the smooth reference curve of Figure 2 ("the traffic generated
from the application layer becomes smoother as the number of sources
increases"), an instance of Central-Limit-Theorem smoothing.

The module also holds the steady-state closed forms of the fluid
analyses (reference [1] of the paper, Bonald's comparison of Reno and
Vegas via fluid approximation) that the solvers are checked against:

* Reno: with loss probability ``p`` per packet the long-run throughput
  is about ``sqrt(3/2) / (rtt * sqrt(p))`` packets/s (the Mathis et al.
  square-root law);
* Vegas: the loss-free window settles where the backlogged-packet
  estimate sits between alpha and beta, i.e. at ``W = rate * base_rtt +
  q`` with ``alpha <= q <= beta``.
"""

from __future__ import annotations

import math
from typing import Tuple


def expected_bin_mean(n_sources: int, rate_per_source: float, bin_width: float) -> float:
    """Mean packets per bin for an aggregate of Poisson sources."""
    _validate(n_sources, rate_per_source, bin_width)
    return n_sources * rate_per_source * bin_width


def poisson_aggregate_cov(
    n_sources: int, rate_per_source: float, bin_width: float
) -> float:
    """Analytic c.o.v. of the aggregated Poisson counts: 1/sqrt(N*lambda*T)."""
    mean = expected_bin_mean(n_sources, rate_per_source, bin_width)
    return 1.0 / math.sqrt(mean)


def cov_from_dispersion(dispersion: float, excess_ratio: float, mean: float) -> float:
    """The aggregate's c.o.v. from the paper's two mechanisms, exactly.

    Per-flow counts with pooled index of dispersion ``D = sum(var_i) /
    sum(mean_i)`` (each flow's own swing;
    :func:`repro.core.dependence.dispersion_index`) and variance excess
    ``R = var(sum) / sum(var_i)`` (the coupling between flows) sum to an
    aggregate of mean ``mu = sum(mean_i)`` and variance ``D * R * mu``,
    so ``c.o.v. = sqrt(D * R / mu)``.  Independent Poisson flows have
    ``D = R = 1``: that is :func:`poisson_aggregate_cov`.
    """
    if mean <= 0:
        raise ValueError("aggregate mean must be positive")
    return math.sqrt(dispersion * excess_ratio / mean)


def reno_fluid_throughput(rtt: float, loss_probability: float) -> float:
    """Mathis square-root-law throughput in packets/second."""
    if rtt <= 0:
        raise ValueError("rtt must be positive")
    if not 0 < loss_probability <= 1:
        raise ValueError("loss probability must be in (0, 1]")
    return math.sqrt(1.5) / (rtt * math.sqrt(loss_probability))


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


def _validate(n_sources: int, rate_per_source: float, bin_width: float) -> None:
    if n_sources < 1:
        raise ValueError("need at least one source")
    if rate_per_source <= 0:
        raise ValueError("rate must be positive")
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
