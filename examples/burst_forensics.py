#!/usr/bin/env python3
"""Burst forensics: which flows caused *this* burst, and why.

The paper's headline number (the c.o.v. of the gateway queue) says the
queue is bursty; it cannot say which flows filled it, or whether a
burst followed the classic droptail failure mode -- a loss wave that
synchronizes many windows, then a synchronized ramp-up that slams the
queue.  The forensics layer answers both, per episode: it segments the
queue-occupancy series into burst episodes, ranks each episode's top
contributing flows (an exact per-packet accountant cross-validated
against a bounded-memory space-saving sketch, the variant a real switch
could afford), and links each burst to the loss-synchronization event
that explains it.

Forty Reno clients congest the 3 Mbps droptail bottleneck; every burst
traces back to a synchronization wave.  The same scenario through a RED
gateway with an adequately provisioned physical buffer (so early drops,
not overflows, do the work) shows the paper's smoothing claim
per-episode: fewer bursts, and fewer of them sync-linked.

A production gateway cannot wait for the run to end: attached to a file
(``repro-tcp run --forensics-stream``), the stream every forensics run
goes through flushes finalized windows, sync events, and burst
attributions as JSONL *while the simulation runs*, keeping bounded
state -- each record once no later event can change it, so the file at
any instant is byte-identical to a prefix of the whole run's file.  The
demo drives the droptail scenario in sim-time slices and tails the
stream between slices, the way an operator's dashboard would; the
droptail and RED reports after it are the same records, kept in a
list because no file was attached.

Run:  python examples/burst_forensics.py
"""

import io

from repro.experiments.config import paper_config
from repro.experiments.scenario import Scenario, run_scenario


def streaming_demo(base) -> None:
    """Tail the forensics stream while the simulation progresses.

    The one place a scenario is built by hand: the demo steps
    ``scenario.sim`` in slices to read the stream between them, which
    :func:`run_scenario` -- the way to run a cell everywhere else --
    has no reason to offer.  A hand-built ``Scenario`` is always the
    per-flow object engine."""
    scenario = Scenario(base)
    sink = io.StringIO()
    scenario.attach_forensics_stream(sink, interval=1.0)
    print("=== streaming (tailing the JSONL stream mid-run) ===")
    seen = 0
    for until in (4.0, 8.0, 12.0):
        scenario.sim.run(until=until)
        lines = sink.getvalue().splitlines()
        fresh = lines[seen:]
        kinds = {}
        for line in fresh:
            kind = line.split('"type": "')[1].split('"')[0]
            kinds[kind] = kinds.get(kind, 0) + 1
        print(
            f"  t={until:>4g}s: +{len(fresh)} records "
            + "("
            + ", ".join(f"{n} {k}" for k, n in sorted(kinds.items()))
            + ")"
        )
        seen = len(lines)
    result = scenario.run()  # finish the run and collect
    stream_report = result.forensics
    assert stream_report is not None
    print(
        f"  t={base.duration:>4g}s: run complete, "
        f"{stream_report.records_written} records total, "
        f"{stream_report.n_bursts} burst(s) diagnosed\n"
    )


def main() -> None:
    base = paper_config(n_clients=40, duration=16.0, seed=7, forensics=True)

    print(
        f"{base.n_clients} Reno clients, {base.duration:g}s simulated, "
        f"droptail buffer {base.buffer_capacity} packets\n"
    )

    streaming_demo(base)

    droptail = run_scenario(base)
    report = droptail.forensics
    assert report is not None
    print("=== droptail gateway ===")
    print(report.render(top=3))

    # Same load through RED, with physical headroom above max_th so the
    # gateway operates in its early-drop regime instead of overflowing.
    red = run_scenario(base.with_(queue="red", buffer_capacity=100))
    red_report = red.forensics
    assert red_report is not None
    print()
    print("=== RED gateway (buffer 100) ===")
    print(red_report.render(top=3))

    print()
    print(
        f"droptail: {report.n_sync_linked}/{report.n_bursts} bursts "
        f"sync-linked, {100 * report.burst_time_fraction:.0f}% of the run "
        f"inside a burst\n"
        f"RED:      {red_report.n_sync_linked}/{red_report.n_bursts} bursts "
        f"sync-linked, {100 * red_report.burst_time_fraction:.0f}% of the "
        f"run inside a burst"
    )
    print(
        "Every droptail burst traces back to a synchronization wave; RED "
        "decorrelates\nthe losses, so the queue spikes less often and its "
        "bursts are no longer the\nsynchronized-ramp signature -- the "
        "paper's smoothing claim, per episode."
    )


if __name__ == "__main__":
    main()
