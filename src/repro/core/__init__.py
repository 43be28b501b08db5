"""The paper's analytical core: traffic burstiness and TCP modulation.

* :mod:`repro.core.cov` -- the coefficient-of-variation measure of
  Section 2.2 (std/mean of per-RTT packet counts at the gateway), the
  one binning rule (``bin_counts``) and the ``BinCounter`` that applies
  it as times arrive.
* :mod:`repro.core.theory` -- closed-form baselines: the c.o.v. of
  aggregated Poisson traffic, Central-Limit-Theorem smoothing, and the
  c.o.v.'s exact split into per-flow dispersion and cross-flow coupling.
* :mod:`repro.core.burstiness` -- complementary burstiness measures
  (index of dispersion, peak-to-mean, multi-scale profiles).
* :mod:`repro.core.selfsimilar` -- Hurst-parameter estimators used by
  the literature the paper critiques (R/S, variance-time plots).
* :mod:`repro.core.modulation` -- the paper's headline comparison:
  offered vs TCP-modulated aggregate statistics.
* :mod:`repro.core.fluid` -- deterministic Reno/Vegas closed forms
  used as analytic cross-checks of simulator steady state.
* :mod:`repro.core.fluid_backend` -- the mean-field fluid *scenario
  backend*: the N -> infinity cwnd-distribution + queue ODE system,
  solved as a drop-in replacement for the packet engine.
"""

from repro.core.burstiness import (
    BurstinessProfile,
    index_of_dispersion,
    multiscale_cov,
    peak_to_mean,
)
from repro.core.cov import bin_counts, coefficient_of_variation, cov_from_times
from repro.core.dependence import (
    DependenceReport,
    autocorrelation,
    dependence_report,
    dispersion_index,
    mean_pairwise_correlation,
    pairwise_correlations,
)
from repro.core.modulation import ModulationReport, modulation_report
from repro.core.selfsimilar import (
    hurst_aggregate_variance,
    hurst_rescaled_range,
    variance_time_plot,
)
from repro.core.theory import (
    clt_smoothing_factor,
    cov_from_dispersion,
    expected_bin_mean,
    poisson_aggregate_cov,
    poisson_cov_curve,
)
from repro.core.fluid import (
    reno_fluid_throughput,
    reno_ideal_sawtooth_cov,
    vegas_equilibrium_window,
)
from repro.core.fluid_backend import FluidSolver, run_fluid_scenario

__all__ = [
    "BurstinessProfile",
    "DependenceReport",
    "ModulationReport",
    "autocorrelation",
    "dependence_report",
    "dispersion_index",
    "mean_pairwise_correlation",
    "pairwise_correlations",
    "bin_counts",
    "clt_smoothing_factor",
    "coefficient_of_variation",
    "cov_from_dispersion",
    "cov_from_times",
    "expected_bin_mean",
    "hurst_aggregate_variance",
    "hurst_rescaled_range",
    "index_of_dispersion",
    "modulation_report",
    "multiscale_cov",
    "peak_to_mean",
    "poisson_aggregate_cov",
    "poisson_cov_curve",
    "FluidSolver",
    "reno_fluid_throughput",
    "reno_ideal_sawtooth_cov",
    "run_fluid_scenario",
    "variance_time_plot",
    "vegas_equilibrium_window",
]
