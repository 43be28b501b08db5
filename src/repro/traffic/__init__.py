"""Application-level traffic generators.

The paper's clients generate Poisson traffic: single packets handed to
the transport stack with exponentially distributed inter-packet times
(mean ``1/lambda``), independent of the congestion window.  This package
also provides constant-bit-rate and heavy-tailed (Pareto on/off) sources
used by the ablation studies.  A :class:`repro.core.cov.BinCounter`
hooked on the sources (``add_hook``) counts the *offered* (pre-TCP)
traffic so its statistics can be compared against what TCP actually
transmits.
"""
