"""The paper's headline comparison: offered vs transported traffic.

A :class:`ModulationReport` puts the two sides of the paper's method
next to each other for one run:

* the c.o.v. of the aggregate the applications *offered* (measured from
  generation times, plus the analytic Poisson value when applicable);
* the c.o.v. of the aggregate the transport actually *delivered to the
  gateway* (measured from arrivals at the bottleneck port);
* the modulation ratio between them -- the number the paper quotes as
  "the TCP c.o.v. numbers are up to X% higher than the aggregated
  Poisson".

Ratios near 1 mean the transport is transparent (UDP); ratios well
above 1 mean the transport injects burstiness (Reno under congestion).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.core.cov import coefficient_of_variation

ArrayLike = Union[Sequence[float], np.ndarray]


@dataclass
class ModulationReport:
    """Offered-vs-transported burstiness for one run."""

    offered_cov: float
    transported_cov: float
    analytic_cov: Optional[float]

    @property
    def modulation_ratio(self) -> float:
        """transported / offered c.o.v.; > 1 means induced burstiness."""
        if self.offered_cov == 0:
            return float("inf") if self.transported_cov > 0 else 1.0
        return self.transported_cov / self.offered_cov

    @property
    def excess_percent(self) -> float:
        """Percent by which the transported c.o.v. exceeds the offered."""
        return (self.modulation_ratio - 1.0) * 100.0

    @property
    def excess_over_analytic_percent(self) -> Optional[float]:
        """Percent above the analytic (Poisson) c.o.v., if available."""
        if self.analytic_cov is None or self.analytic_cov == 0:
            return None
        return (self.transported_cov / self.analytic_cov - 1.0) * 100.0

    def describe(self) -> str:
        """Human-readable summary paragraph."""
        lines = [
            f"offered c.o.v.     = {self.offered_cov:.4f}",
            f"transported c.o.v. = {self.transported_cov:.4f}",
            f"modulation ratio   = {self.modulation_ratio:.3f}"
            f"  ({self.excess_percent:+.1f}% vs offered)",
        ]
        if self.analytic_cov is not None:
            excess = self.excess_over_analytic_percent
            lines.append(
                f"analytic Poisson   = {self.analytic_cov:.4f}"
                f"  ({excess:+.1f}% vs analytic)"
            )
        return "\n".join(lines)


def modulation_report(
    offered_counts: ArrayLike,
    transported_counts: ArrayLike,
    analytic_cov: Optional[float] = None,
) -> ModulationReport:
    """Build a :class:`ModulationReport` from per-bin count series."""
    return ModulationReport(
        offered_cov=coefficient_of_variation(offered_counts),
        transported_cov=coefficient_of_variation(transported_counts),
        analytic_cov=analytic_cov,
    )
