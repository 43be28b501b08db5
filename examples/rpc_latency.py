#!/usr/bin/env python3
"""Closed-loop RPC latency: what TCP burstiness costs the application.

The paper measures burstiness at the gateway (packet-level c.o.v.);
this example measures it where a distributed computing system feels it:
request latency.  Forty closed-loop RPC clients (6-packet requests,
four outstanding each, exponential think time) congest the 3 Mbps
bottleneck; unlike the paper's open-loop Poisson sources, each client
only issues its next request after the previous one was delivered and
answered, so TCP backpressure feeds back into the offered load.

Reno's loss-driven sawtooth fills the gateway queue until it drops
(higher loss, higher c.o.v., a higher-median latency); Vegas backs off
on delay, keeping the queue -- and the median request latency -- lower
at the same offered workload.

Run:  python examples/rpc_latency.py
"""

from repro.experiments.config import paper_config
from repro.experiments.scenario import run_scenario


def main() -> None:
    base = paper_config(
        workload="rpc",
        n_clients=40,
        duration=30.0,
        seed=1,
        rpc_request_packets=6,
        rpc_outstanding=4,
        rpc_think_time=0.1,
    )

    print(
        f"{base.n_clients} closed-loop RPC clients, "
        f"{base.rpc_request_packets}-packet requests, "
        f"{base.rpc_outstanding} outstanding, "
        f"mean think {base.rpc_think_time:g}s, {base.duration:g}s simulated\n"
    )

    results = {}
    for protocol in ("reno", "vegas"):
        result = run_scenario(base.with_(protocol=protocol))
        results[protocol] = result
        assert result.app is not None
        print(f"--- {result.config.label} ---")
        print(result.app.describe())
        print(f"  gateway c.o.v. = {result.cov:.4f}, loss = {result.loss_percent:.2f}%")
        print()

    reno, vegas = results["reno"], results["vegas"]
    print(
        f"median request latency: Reno {reno.app.latency_p50:.2f}s vs "
        f"Vegas {vegas.app.latency_p50:.2f}s "
        f"(loss {reno.loss_percent:.1f}% vs {vegas.loss_percent:.1f}%)"
    )
    print(
        "The same application workload pays a different latency depending "
        "on the\ncongestion-control mechanism carrying it -- the paper's "
        "burstiness, seen\nfrom the application."
    )


if __name__ == "__main__":
    main()
