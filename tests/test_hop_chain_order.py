"""The object engine's per-hop event order, pinned by traces.

``goldens/hop_chain/order.json`` holds, for three 5-s cells on the
object engine, the digest of the ns-format packet trace at the
bottleneck (what ``--trace-file`` writes) and of the ordered
``time seq Class.method`` list of every executed event.  The sequence
numbers are handed out at arming time, so the second digest moves if a
callback arms its events in another order, at another time, or through
another callback -- things a metrics digest can absorb.  Captured at
the commit before PR 20 shortened the hop chain
(``Interface`` / ``Node`` / ``PacketQueue`` / ``Simulator.schedule``);
see tests/goldens/README.md before regenerating.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.experiments.config import paper_config
from repro.experiments.scenario import Scenario
from repro.net.tracefile import NsTraceWriter
from repro.obs.engineprof import callback_category

GOLDEN_PATH = Path(__file__).parent / "goldens" / "hop_chain" / "order.json"

# At the paper's 3 Mb/s a handful of clients never queue behind one
# another (N=8, 5 s: 768 trace lines, 0 drops); a 0.4 Mb/s bottleneck
# (50 packets/s against 60-80 offered) keeps the transmitter busy with
# a backlog, which is the path the goldens are here to pin.
CELLS = {
    "reno-fifo-n8": dict(protocol="reno", queue="fifo", n_clients=8),
    "vegas-red-n8": dict(protocol="vegas", queue="red", n_clients=8),
    # Delayed ACKs (timer events on the reverse path) into a buffer
    # small enough to drop.
    "reno_delack-fifo-n6-buffer5": dict(
        protocol="reno_delack", queue="fifo", n_clients=6, buffer_capacity=5
    ),
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _traced_scenario(overrides):
    config = paper_config(
        duration=5.0, seed=1, engine="object", bottleneck_rate_bps=0.4e6, **overrides
    )
    scenario = Scenario(config)
    trace = io.StringIO()
    NsTraceWriter(trace).attach(scenario.network.bottleneck_queue)
    return scenario, trace


def _fingerprint(overrides):
    scenario, trace = _traced_scenario(overrides)
    config, sim = scenario.config, scenario.sim
    executed = []
    while True:
        # The live entry the step below executes, after discarding
        # (and pooling) every cancelled one ahead of it.
        entry = min((e for e in sim._heap if not e[3].cancelled), default=None)
        if entry is None or entry[0] > config.duration:
            break
        time, _, seq, event = entry
        executed.append(f"{time!r} {seq} {callback_category(event.callback)}\n")
        del entry, event  # the step's recycling guard counts references
        sim.step()
    lines = trace.getvalue()
    return {
        "events": len(executed),
        "events_sha256": _sha256("".join(executed)),
        "trace_lines": lines.count("\n"),
        "trace_drops": sum(1 for line in lines.splitlines() if line[0] == "d"),
        "trace_sha256": _sha256(lines),
    }


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_event_order_and_packet_trace_are_unchanged(cell, request):
    golden = json.loads(GOLDEN_PATH.read_text())
    fingerprint = _fingerprint(CELLS[cell])
    if request.config.getoption("--update-goldens"):
        golden[cell] = fingerprint
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    assert fingerprint == golden[cell]


def test_stepping_executes_what_run_executes():
    """The event list above is taken by stepping; one ``run`` executes
    the same number of events and writes the same trace."""
    cell = "reno_delack-fifo-n6-buffer5"
    golden = json.loads(GOLDEN_PATH.read_text())[cell]
    scenario, trace = _traced_scenario(CELLS[cell])
    result = scenario.run()
    assert result.events_executed == golden["events"]
    assert _sha256(trace.getvalue()) == golden["trace_sha256"]
    assert golden["trace_drops"] > 0
