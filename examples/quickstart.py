#!/usr/bin/env python3
"""Quickstart: one simulated run of the paper's client/server system.

Builds the Figure-1 dumbbell with the (reconstructed) Table-1 defaults,
runs 40 TCP Reno clients for 30 simulated seconds, and prints the
paper's core measurement: the coefficient of variation of the packets
arriving at the gateway per round-trip propagation delay, against the
analytic c.o.v. of the offered Poisson aggregate.

Run:  python examples/quickstart.py
"""

from repro.experiments.config import paper_config
from repro.experiments.scenario import run_scenario
from repro.net.topology import build_dumbbell
from repro.sim.engine import Simulator


def main() -> None:
    config = paper_config(
        protocol="reno",
        queue="fifo",
        n_clients=40,
        duration=30.0,
        seed=1,
    )

    # Show the topology we are about to simulate (paper Figure 1).
    print("Network model (Figure 1):")
    print(build_dumbbell(Simulator(), config).ascii_diagram())
    print()
    print(
        f"offered load: {config.n_clients} clients x "
        f"{config.per_client_rate:g} pkt/s = "
        f"{config.offered_load_bps / 1e6:.2f} Mbps vs "
        f"{config.bottleneck_rate_bps / 1e6:g} Mbps bottleneck "
        f"(congestion knee at ~{config.congestion_knee_clients:.1f} clients)"
    )
    print()

    # run_scenario is the one way to run a cell: it picks the engine
    # (this Reno cell runs on the batch engine, bit-identical to the
    # per-flow objects and several times faster), runs, and cleans up.
    result = run_scenario(config)

    print(f"ran {result.events_executed} events over {config.duration:g} s")
    print()
    print("The paper's headline measurement:")
    assert result.modulation is not None
    print(result.modulation.describe())
    print()
    print(
        f"throughput: {result.throughput_packets} packets "
        f"({result.utilization:.0%} of bottleneck capacity)"
    )
    print(f"packet loss at the gateway: {result.loss_percent:.2f}%")
    print(
        f"recoveries: {result.timeouts} timeouts, "
        f"{result.fast_retransmits} fast retransmits"
    )
    print()
    print(
        "TCP Reno under congestion transports the smooth Poisson input as a\n"
        "noticeably burstier aggregate (modulation ratio > 1); re-run with\n"
        "protocol='vegas' or protocol='udp' to see the contrast."
    )


if __name__ == "__main__":
    main()
