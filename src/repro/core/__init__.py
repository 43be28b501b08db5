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
