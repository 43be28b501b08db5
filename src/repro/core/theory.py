"""Closed-form baselines from Section 2.2 of the paper.

The unmodulated aggregate of ``N`` independent Poisson sources of rate
``lambda`` observed over windows of width ``T`` is Poisson with mean
``N * lambda * T``; a Poisson count has variance equal to its mean, so

    c.o.v. = sqrt(N lambda T) / (N lambda T) = 1 / sqrt(N lambda T).

This is the smooth reference curve of Figure 2 ("the traffic generated
from the application layer becomes smoother as the number of sources
increases"), an instance of Central-Limit-Theorem smoothing.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


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


def poisson_cov_curve(
    client_counts: Sequence[int], rate_per_source: float, bin_width: float
) -> np.ndarray:
    """The Figure-2 reference curve over a grid of client counts."""
    return np.array(
        [poisson_aggregate_cov(n, rate_per_source, bin_width) for n in client_counts]
    )


def clt_smoothing_factor(n_sources: int) -> float:
    """Relative spread reduction from aggregating ``n`` i.i.d. sources.

    For any finite-mean, finite-variance source, the c.o.v. of the sum
    of ``n`` independent copies is the single-source c.o.v. divided by
    ``sqrt(n)`` -- the Central Limit Theorem argument of Section 2.2.
    """
    if n_sources < 1:
        raise ValueError("need at least one source")
    return 1.0 / math.sqrt(n_sources)


def aggregate_cov_of_independent(covs: Sequence[float], means: Sequence[float]) -> float:
    """c.o.v. of a sum of independent sources with given per-source stats.

    var(sum) = sum(var_i) = sum((cov_i * mean_i)**2); mean(sum) = sum(mean_i).
    TCP's modulation breaks exactly the independence this formula needs --
    measured aggregate c.o.v. above this value indicates induced coupling.
    """
    covs = np.asarray(covs, dtype=float)
    means = np.asarray(means, dtype=float)
    if covs.shape != means.shape or covs.size == 0:
        raise ValueError("covs and means must be equal-length, non-empty")
    total_mean = means.sum()
    if total_mean <= 0:
        raise ValueError("aggregate mean must be positive")
    total_std = math.sqrt(float(((covs * means) ** 2).sum()))
    return total_std / total_mean


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


def _validate(n_sources: int, rate_per_source: float, bin_width: float) -> None:
    if n_sources < 1:
        raise ValueError("need at least one source")
    if rate_per_source <= 0:
        raise ValueError("rate must be positive")
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
