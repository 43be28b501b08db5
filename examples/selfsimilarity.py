#!/usr/bin/env python3
"""Where does burstiness come from: heavy tails or TCP?

The self-similarity literature the paper critiques attributes aggregate
burstiness to heavy-tailed source activity.  The paper's counterpoint:
even *smooth* (Poisson) sources become bursty once TCP modulates them.
This example puts both effects on the same axis:

  1. Poisson sources over UDP        -> smooth in, smooth out
  2. Pareto on/off sources over UDP  -> bursty in, bursty out (heavy tails)
  3. Poisson sources over TCP Reno   -> smooth in, bursty out (TCP!)

and reports c.o.v. at the RTT timescale, the multi-timescale c.o.v.
profile, and Hurst estimates for each transported aggregate.

Run:  python examples/selfsimilarity.py          (~1 minute)
"""

from repro.analysis.tables import format_table
from repro.core.selfsimilar import (
    hurst_aggregate_variance,
    hurst_rescaled_range,
    multiscale_cov,
)
from repro.experiments.config import paper_config
from repro.experiments.scenario import run_scenario

N_CLIENTS = 45
DURATION = 120.0  # Hurst estimators need a long series


def main() -> None:
    cases = [
        ("Poisson / UDP", dict(protocol="udp", traffic="poisson")),
        ("Pareto on-off / UDP", dict(protocol="udp", traffic="pareto_onoff")),
        ("Poisson / TCP Reno", dict(protocol="reno", traffic="poisson")),
        ("Pareto on-off / TCP Reno", dict(protocol="reno", traffic="pareto_onoff")),
    ]
    rows = []
    profiles = {}
    for name, overrides in cases:
        config = paper_config(
            n_clients=N_CLIENTS, duration=DURATION, seed=1, **overrides
        )
        result = run_scenario(config)
        counts = result.bin_counts
        profiles[name] = multiscale_cov(counts, factors=(1, 4, 16, 64))
        rows.append(
            [
                name,
                result.offered_cov,
                result.cov,
                hurst_aggregate_variance(counts),
                hurst_rescaled_range(counts),
                result.loss_percent,
            ]
        )
        print(f"ran {name} ...")

    print()
    print(
        format_table(
            ["workload / transport", "offered cov", "gateway cov", "H (var-time)",
             "H (R/S)", "loss %"],
            rows,
            precision=3,
            title=f"Sources of burstiness ({N_CLIENTS} clients, {DURATION:g}s)",
        )
    )
    print()
    print("multi-timescale c.o.v. (bin aggregation factor m):")
    scale_rows = [
        [name] + [profile.get(m, float("nan")) for m in (1, 4, 16, 64)]
        for name, profile in profiles.items()
    ]
    print(format_table(["case", "m=1", "m=4", "m=16", "m=64"], scale_rows, precision=3))
    print()
    print(
        "Reading: for independent smooth traffic the c.o.v. falls ~1/sqrt(m)\n"
        "as you aggregate in time; heavy-tailed input and TCP modulation both\n"
        "slow that decay, but only TCP does so while the *offered* traffic\n"
        "stays Poisson-smooth -- the paper's point."
    )


if __name__ == "__main__":
    main()
