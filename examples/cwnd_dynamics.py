#!/usr/bin/env python3
"""Congestion-window dynamics: Figures 5-12 in miniature.

Traces the congestion windows of three spread-out client streams for
TCP Reno and TCP Vegas at a moderately and a heavily congested load,
renders them as ASCII step plots, and quantifies the loss
synchronization the paper describes (Section 3.2): the correlation of
window decreases across flows.

Run:  python examples/cwnd_dynamics.py          (~30 s)
"""

import numpy as np

from repro.analysis.asciiplot import ascii_step_plot
from repro.analysis.timeseries import (
    all_decrease_events,
    sample_step_series,
    synchronization_fraction,
    uniform_grid,
)
from repro.experiments.config import paper_config
from repro.experiments.figures import cwnd_trace_experiment, default_traced_flows

DURATION = 40.0


def show(protocol: str, n_clients: int) -> None:
    base = paper_config(duration=DURATION, seed=1)
    result = cwnd_trace_experiment(protocol, n_clients, base=base)
    traces = result.cwnd_traces(default_traced_flows(n_clients))
    title = f"{protocol.capitalize()}, {n_clients} clients"
    print("=" * 78)
    print(title)
    print("=" * 78)
    for flow_id, trace in sorted(traces.items()):
        print(
            ascii_step_plot(
                trace,
                0.0,
                DURATION,
                width=70,
                height=12,
                title=f"cwnd of client {flow_id}",
            )
        )
        print()
    # Loss synchronization (Section 3.2): the fraction of window
    # decreases that another traced flow shares within one second --
    # the coupling the paper blames for aggregate burstiness.
    score = synchronization_fraction(traces)
    events = len(all_decrease_events(traces))
    grid = uniform_grid(0.0, DURATION, 0.5)
    mean_windows = [
        float(np.mean(sample_step_series(tr, grid, initial=1.0)))
        for tr in traces.values()
    ]
    print(
        f"window-decrease events: {events}; fraction synchronized across "
        f"flows (within 1 s): {score:.0%}"
    )
    print(
        "mean windows per flow: "
        + ", ".join(f"{w:.1f}" for w in mean_windows)
        + f"   loss={result.loss_percent:.1f}%  timeouts={result.timeouts}"
    )
    print()


def main() -> None:
    # Reno: stabilizes at moderate load, synchronized sawtooth when heavy
    # (paper Figures 6 and 9).
    show("reno", 30)
    show("reno", 60)
    # Vegas: settles to a small, fair, near-constant window (Figures 10-12).
    show("vegas", 30)
    show("vegas", 60)
    print(
        "Note how Reno's windows keep collapsing and rebuilding in near\n"
        "lock-step under heavy load, while Vegas flows settle to flat,\n"
        "nearly equal windows -- the mechanism behind the c.o.v. gap of\n"
        "Figure 2."
    )


if __name__ == "__main__":
    main()
