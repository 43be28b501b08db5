"""The paper's analytical core: traffic burstiness and TCP modulation.

* :mod:`repro.core.cov` -- the coefficient-of-variation measure of
  Section 2.2 (std/mean of per-RTT packet counts at the gateway), the
  one binning rule (``bin_counts``) and the ``BinCounter`` that applies
  it as times arrive.
* :mod:`repro.core.theory` -- closed forms: the c.o.v. of aggregated
  Poisson traffic, the c.o.v.'s exact split into per-flow dispersion
  and cross-flow coupling, and the Reno/Vegas fluid steady states the
  solvers are checked against.
* :mod:`repro.core.dependence` -- the cross-flow dependence behind that
  split (pairwise correlations, variance excess, pooled dispersion).
* :mod:`repro.core.selfsimilar` -- multi-timescale statistics: the
  multi-scale c.o.v. profile and the Hurst-parameter estimators used by
  the literature the paper critiques (R/S, variance-time plots).
* :mod:`repro.core.modulation` -- the paper's headline comparison:
  offered vs TCP-modulated aggregate c.o.v.
* :mod:`repro.core.fluid_backend` -- the mean-field fluid *scenario
  backend*: the N -> infinity cwnd-distribution + queue ODE system,
  solved as a drop-in replacement for the packet engine.
* :mod:`repro.core.hybrid_backend` -- packet-level foreground flows
  riding the mean-field background.
"""
