"""Goldens for the congestion-window traces Figures 5-12 and the claims read.

``goldens/transport/cwnd_traces.json`` holds, per seeded cell, the
SHA-256 of the traced flows' ``(time, cwnd)`` rows -- the first,
middle and last of the run's packet flows (``default_traced_flows``)
-- and the claims table's four window statistics on that run
(``cwnd_decreases``, ``late_cwnd_decreases``, ``cwnd_synchrony``,
``steady_window_cov``).  The cells are every TCP protocol of
``PROTOCOLS`` (``reno_ecn`` over RED), a paced Reno cell, an rpc cell,
hybrid with K=5 foreground flows and a Reno cell forced onto the
object engine.  Captured while each sender kept its own cwnd log
beside the flight recorder's cwnd columns; see tests/goldens/README.md
before regenerating.
"""

from __future__ import annotations

import hashlib
import json
import struct
from array import array
from pathlib import Path

import pytest

from repro.experiments.claims import RESULT_STATISTICS
from repro.experiments.config import PROTOCOLS, paper_config
from repro.experiments.figures import default_traced_flows
from repro.experiments.scenario import run_scenario

GOLDEN_PATH = Path(__file__).parent / "goldens" / "transport" / "cwnd_traces.json"

#: Just above the knee, long enough for the second-half statistics.
BASE = dict(n_clients=40, duration=12.0, seed=4)

CELLS = {
    f"{protocol}-{'red' if protocol == 'reno_ecn' else 'fifo'}": dict(
        BASE,
        protocol=protocol,
        queue="red" if protocol == "reno_ecn" else "fifo",
    )
    for protocol in PROTOCOLS
    if protocol != "udp"
}
CELLS["reno-fifo-paced"] = dict(BASE, protocol="reno", pacing=True)
CELLS["reno-rpc"] = dict(BASE, protocol="reno", workload="rpc")
CELLS["hybrid-reno-k5-n200"] = dict(
    BASE, protocol="reno", backend="hybrid", n_clients=200, hybrid_foreground_flows=5
)
CELLS["reno-fifo-object"] = dict(BASE, protocol="reno", engine="object")

WINDOW_STATISTICS = (
    "cwnd_decreases",
    "late_cwnd_decreases",
    "cwnd_synchrony",
    "steady_window_cov",
)


def _traced_run(overrides):
    """One run of the cell and the cwnd traces of its default flows."""
    config = paper_config(**overrides)
    flows = default_traced_flows(
        config.hybrid_foreground_flows
        if config.backend == "hybrid"
        else config.n_clients
    )
    result = run_scenario(config.with_(obs_trace=("cwnd",)))
    return result, result.cwnd_traces(flows)


def _sha256(traces):
    digest = hashlib.sha256()
    for flow in sorted(traces):
        digest.update(struct.pack("<q", flow))
        digest.update(array("d", [x for row in traces[flow] for x in row]).tobytes())
    return digest.hexdigest()


def _fingerprint(overrides):
    result, traces = _traced_run(overrides)
    fingerprint = {
        "flows": sorted(traces),
        "rows": sum(len(trace) for trace in traces.values()),
        "sha256": _sha256(traces),
    }
    for name in WINDOW_STATISTICS:
        fingerprint[name] = float(RESULT_STATISTICS[name](result))
    return fingerprint


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_cwnd_traces_are_unchanged(cell, request):
    fingerprint = _fingerprint(CELLS[cell])
    if request.config.getoption("--update-goldens"):
        golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        golden[cell] = fingerprint
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    golden = json.loads(GOLDEN_PATH.read_text())
    assert fingerprint == golden[cell]
