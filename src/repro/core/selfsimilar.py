"""Multi-timescale statistics: block aggregation and Hurst estimators.

The self-similarity literature the paper critiques (its references
[11, 14, 15, 16, 19]) characterizes burstiness by the Hurst parameter
``H`` of the packet-count process: ``H = 0.5`` for short-range-dependent
(e.g. Poisson) traffic, ``H -> 1`` for strongly long-range-dependent
traffic.  The paper argues c.o.v. at the RTT scale is the operative
measure for statistical multiplexing; we implement the classical
views anyway so the two can be compared on the same runs:

* the multi-scale c.o.v. profile: the c.o.v. recomputed over dyadic
  aggregations of the base bins ("does it smooth out when you zoom
  out?");
* aggregate-variance (variance-time plot) estimator;
* rescaled-range (R/S) estimator.

The two estimators are log-log regressions; they need reasonably long
count series (hundreds of bins or more) to be meaningful.
"""
from __future__ import annotations

from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.core.cov import coefficient_of_variation

ArrayLike = Union[Sequence[float], np.ndarray]


def aggregate_counts(counts: ArrayLike, factor: int) -> np.ndarray:
    """Sum adjacent groups of ``factor`` bins (coarser timescale)."""
    if factor < 1:
        raise ValueError("aggregation factor must be >= 1")
    counts = np.asarray(counts, dtype=float)
    n_groups = counts.size // factor
    if n_groups == 0:
        return np.zeros(0)
    return counts[: n_groups * factor].reshape(n_groups, factor).sum(axis=1)


def multiscale_cov(
    counts: ArrayLike, factors: Sequence[int] = (1, 2, 4, 8, 16, 32)
) -> Dict[int, float]:
    """c.o.v. at several dyadic aggregations of the base timescale.

    For i.i.d. counts the c.o.v. at factor ``m`` falls like
    ``1/sqrt(m)``; slower decay is the signature of burstiness that
    persists across timescales (self-similarity).
    """
    result: Dict[int, float] = {}
    for factor in factors:
        aggregated = aggregate_counts(counts, factor)
        if aggregated.size >= 2:
            result[factor] = coefficient_of_variation(aggregated)
    return result


def variance_time_plot(
    counts: ArrayLike,
    factors: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    min_groups: int = 8,
) -> Tuple[np.ndarray, np.ndarray]:
    """(m, var of the m-aggregated, m-normalized series) pairs.

    For a self-similar process, ``var(X^(m)) ~ m^(2H-2)`` where
    ``X^(m)`` is the series averaged over blocks of ``m``.
    """
    counts = np.asarray(counts, dtype=float)
    ms: List[int] = []
    variances: List[float] = []
    for m in factors:
        if counts.size // m < min_groups:
            continue
        blocks = aggregate_counts(counts, m) / m
        variance = float(blocks.var())
        if variance > 0:
            ms.append(m)
            variances.append(variance)
    return np.asarray(ms, dtype=float), np.asarray(variances)


def hurst_aggregate_variance(
    counts: ArrayLike,
    factors: Sequence[int] = (1, 2, 4, 8, 16, 32, 64),
    min_groups: int = 8,
) -> float:
    """Hurst estimate from the slope of the variance-time plot.

    Fits ``log var(X^(m)) = beta log m + c``; returns ``H = 1 + beta/2``.
    Returns ``nan`` if fewer than three usable aggregation levels exist.
    """
    ms, variances = variance_time_plot(counts, factors, min_groups)
    if ms.size < 3:
        return float("nan")
    slope = _regress_loglog(ms, variances)
    hurst = 1.0 + slope / 2.0
    return float(min(max(hurst, 0.0), 1.0))


def hurst_rescaled_range(
    counts: ArrayLike,
    block_sizes: Sequence[int] = (8, 16, 32, 64, 128, 256),
    min_blocks: int = 4,
) -> float:
    """Hurst estimate from rescaled-range (R/S) analysis.

    For each block size ``n``, the series is cut into blocks; each
    block's range of mean-adjusted cumulative sums, divided by the block
    standard deviation, scales as ``n^H``.
    """
    counts = np.asarray(counts, dtype=float)
    ns: List[int] = []
    rs_values: List[float] = []
    for n in block_sizes:
        n_blocks = counts.size // n
        if n_blocks < min_blocks:
            continue
        rs_block: List[float] = []
        for b in range(n_blocks):
            block = counts[b * n : (b + 1) * n]
            std = block.std()
            if std == 0:
                continue
            deviations = np.cumsum(block - block.mean())
            rs_block.append((deviations.max() - deviations.min()) / std)
        if rs_block:
            ns.append(n)
            rs_values.append(float(np.mean(rs_block)))
    ns_arr = np.asarray(ns, dtype=float)
    rs_arr = np.asarray(rs_values, dtype=float)
    usable = rs_arr > 0
    if usable.sum() < 3:
        return float("nan")
    hurst = _regress_loglog(ns_arr[usable], rs_arr[usable])
    return float(min(max(hurst, 0.0), 1.0))


def _regress_loglog(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log(y) on log(x)."""
    slope, _intercept = np.polyfit(np.log(x), np.log(y), 1)
    return float(slope)
