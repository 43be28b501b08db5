"""Cross-stream dependence: the paper's central mechanism, quantified.

Section 2.2's argument is that the Central Limit Theorem smoothing of
aggregated traffic requires the streams to be *independent*, and that
TCP's congestion control destroys exactly that independence ("TCP can
modulate these streams in such a way that they are no longer
independent").  The paper shows the consequence (aggregate c.o.v.);
this module measures the cause directly:

* pairwise Pearson correlation of the per-flow binned arrival counts;
* the autocorrelation function of the aggregate counts;
* a variance-decomposition check: for independent streams,
  ``var(sum) = sum(var)``; the excess ``var(sum) - sum(var)`` is twice
  the sum of the pairwise covariances -- positive when congestion
  decisions synchronize, and directly responsible for the c.o.v. gap.
* the pooled index of dispersion ``D`` of the per-flow counts
  (:func:`dispersion_index`), the other half of the c.o.v.'s split.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

ArrayLike = Union[Sequence[float], np.ndarray]


def pairwise_correlations(per_flow_counts: np.ndarray) -> np.ndarray:
    """Upper-triangle pairwise Pearson correlations.

    Args:
        per_flow_counts: shape (n_flows, n_bins) array of per-flow
            per-bin arrival counts.

    Returns:
        1-D array of the n*(n-1)/2 pairwise correlation coefficients
        (flows with zero variance are skipped).
    """
    counts = np.asarray(per_flow_counts, dtype=float)
    if counts.ndim != 2 or counts.shape[0] < 2:
        raise ValueError("need a (n_flows >= 2, n_bins) array")
    variances = counts.var(axis=1)
    active = counts[variances > 0]
    if active.shape[0] < 2:
        return np.zeros(0)
    matrix = np.corrcoef(active)
    upper = matrix[np.triu_indices_from(matrix, k=1)]
    return upper


def autocorrelation(counts: ArrayLike, max_lag: int = 20) -> np.ndarray:
    """Autocorrelation function of a count series, lags 0..max_lag."""
    series = np.asarray(counts, dtype=float)
    if series.size < 2:
        raise ValueError("need at least two observations")
    series = series - series.mean()
    variance = float((series**2).sum())
    if variance == 0:
        return np.concatenate([[1.0], np.zeros(min(max_lag, series.size - 1))])
    lags = range(0, min(max_lag, series.size - 1) + 1)
    return np.array(
        [float((series[: series.size - k] * series[k:]).sum()) / variance for k in lags]
    )


@dataclass
class DependenceReport:
    """Independence diagnostics for one run's per-flow arrivals."""

    n_flows: int
    mean_correlation: float
    max_correlation: float
    fraction_positive: float
    aggregate_variance: float
    sum_of_flow_variances: float
    aggregate_acf_lag1: float

    @property
    def variance_excess_ratio(self) -> float:
        """var(sum)/sum(var): 1 for independent streams, > 1 when the
        streams' fluctuations are positively coupled."""
        if self.sum_of_flow_variances == 0:
            return 1.0 if self.aggregate_variance == 0 else float("inf")
        return self.aggregate_variance / self.sum_of_flow_variances

    def describe(self) -> str:
        """Human-readable summary."""
        return "\n".join(
            [
                f"flows analyzed          = {self.n_flows}",
                f"mean pairwise corr      = {self.mean_correlation:+.4f}",
                f"max pairwise corr       = {self.max_correlation:+.4f}",
                f"fraction positive pairs = {self.fraction_positive:.0%}",
                f"var(sum)/sum(var)       = {self.variance_excess_ratio:.3f}"
                "  (1.0 = independent)",
                f"aggregate ACF at lag 1  = {self.aggregate_acf_lag1:+.4f}",
            ]
        )


def dispersion_index(per_flow_counts: np.ndarray) -> float:
    """Pooled index of dispersion of per-flow binned counts,
    ``D = sum(var_i) / sum(mean_i)``: 1 for Poisson flows, above 1 when
    each flow's own sending swings (its window) spread its counts.

    With :attr:`DependenceReport.variance_excess_ratio` ``R`` -- the
    coupling *between* flows -- it splits the aggregate's c.o.v. exactly
    (:func:`repro.core.theory.cov_from_dispersion`).  NaN when no flow
    sent anything.
    """
    counts = np.asarray(per_flow_counts, dtype=float)
    total_mean = float(counts.mean(axis=1).sum())
    if total_mean == 0:
        return float("nan")
    return float(counts.var(axis=1).sum()) / total_mean


def dependence_report(per_flow_counts: np.ndarray) -> DependenceReport:
    """Build a :class:`DependenceReport` from per-flow binned counts."""
    counts = np.asarray(per_flow_counts, dtype=float)
    correlations = pairwise_correlations(counts)
    aggregate = counts.sum(axis=0)
    acf = autocorrelation(aggregate, max_lag=1)
    return DependenceReport(
        n_flows=counts.shape[0],
        mean_correlation=float(correlations.mean()) if correlations.size else 0.0,
        max_correlation=float(correlations.max()) if correlations.size else 0.0,
        fraction_positive=(
            float((correlations > 0).mean()) if correlations.size else 0.0
        ),
        aggregate_variance=float(aggregate.var()),
        sum_of_flow_variances=float(counts.var(axis=1).sum()),
        aggregate_acf_lag1=float(acf[1]) if acf.size > 1 else 0.0,
    )

