"""Goldens for every TCP sender's state after each ACK and each timeout.

``goldens/transport/sender_state.json`` holds, per seeded cell, one
SHA-256 over what every sender looked like after each call of
``TcpSender.receive`` and ``TcpSender._timeout``: the window
(``cwnd``, ``ssthresh``), the RTT estimator (``srtt``, ``rttvar``,
``rto``), the sequence pointers (``last_ack``, ``t_seqno``,
``maxseq``), ``last_ack_rtt``, the latency stats, and
``send_time_of(s)`` / ``transmit_count_of(s)`` for every ``s`` in
``(last_ack, maxseq]``.  Each flow's calls are hashed in order, and the
cell's digest is taken over the flows' digests in flow order, so it
does not depend on how an engine interleaves flows.

The cells are every TCP protocol of ``PROTOCOLS`` over droptail and RED
(``reno_ecn`` over RED only), each on the default dispatch and on the
forced object engine, plus a paced Reno cell and two long backlogged
cells (Vegas and SACK) in which a sender ACKs more than
``3 * _COMPACT_AT`` packets, so that the per-sequence stores are
compacted several times.  Captured while the per-sequence send times
and transmit counts were dicts and the RTO was recomputed at every
timer arm; see tests/goldens/README.md before regenerating.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.config import PROTOCOLS, paper_config
from repro.experiments.scenario import run_scenario
from repro.transport.tcp_base import _COMPACT_AT, TcpSender

GOLDEN_PATH = Path(__file__).parent / "goldens" / "transport" / "sender_state.json"

#: Just above the knee: timeouts, fast retransmits and recoveries in
#: every protocol within a few seconds.
BASE = dict(n_clients=40, duration=6.0, seed=5)

#: Two backlogged flows on a short, fast path: each sender ACKs over
#: 7000 packets in 4.5 s.
LONG = dict(
    n_clients=2,
    duration=4.5,
    seed=2,
    packet_size=100,
    mean_gap=0.0004,
    client_delay=0.001,
    bottleneck_delay=0.01,
    advertised_window=40,
)

CELLS = {
    f"{protocol}-{queue}-{dispatch}": dict(
        BASE,
        protocol=protocol,
        queue=queue,
        **({"engine": "object"} if dispatch == "object" else {}),
    )
    for protocol in PROTOCOLS
    if protocol != "udp"
    for queue in ("fifo", "red")
    if not (protocol == "reno_ecn" and queue == "fifo")
    for dispatch in ("default", "object")
}
CELLS["reno-fifo-paced"] = dict(BASE, protocol="reno", pacing=True)
# A ten-packet buffer makes the SACK flows lose a few packets; Vegas,
# which reads the RTT of retransmitted packets as its base RTT, gets a
# buffer that it never overflows.
CELLS["vegas-fifo-long"] = dict(LONG, protocol="vegas", buffer_capacity=30)
CELLS["sack-fifo-long"] = dict(LONG, protocol="sack", buffer_capacity=10)


class _Recorder:
    """Per-flow SHA-256 of the sender state after each wrapped call."""

    def __init__(self) -> None:
        self.flows = {}
        self.calls = 0
        self.most_acked = 0

    def attach(self, scenario) -> None:
        # A second scenario (a batch run's fallback) starts over.
        self.flows = {id(sender): hashlib.sha256() for sender in scenario.senders}
        self.calls = 0
        self.most_acked = 0

    def note(self, sender: TcpSender, call: str) -> None:
        hasher = self.flows.get(id(sender))
        if hasher is None:
            return
        self.calls += 1
        self.most_acked = max(self.most_acked, sender.last_ack + 1)
        stats = sender.stats
        outstanding = tuple(
            (sender.send_time_of(seq), sender.transmit_count_of(seq))
            for seq in range(sender.last_ack + 1, sender.maxseq + 1)
        )
        state = (
            call,
            sender.sim.now,
            sender.cwnd,
            sender.ssthresh,
            sender.srtt,
            sender.rttvar,
            sender.rto,
            sender.last_ack,
            sender.t_seqno,
            sender.maxseq,
            sender.last_ack_rtt,
            stats.latency_count,
            stats.latency_sum,
            stats.latency_max,
            outstanding,
        )
        hasher.update(repr(state).encode())

    def digest(self) -> str:
        cell = hashlib.sha256()
        for hasher in self.flows.values():
            cell.update(hasher.digest())
        return cell.hexdigest()


def _fingerprint(monkeypatch, overrides):
    recorder = _Recorder()
    receive, timeout = TcpSender.receive, TcpSender._timeout

    def recorded_receive(self, packet):
        receive(self, packet)
        recorder.note(self, "receive")

    def recorded_timeout(self):
        timeout(self)
        recorder.note(self, "timeout")

    monkeypatch.setattr(TcpSender, "receive", recorded_receive)
    monkeypatch.setattr(TcpSender, "_timeout", recorded_timeout)
    result = run_scenario(paper_config(**overrides), attach=recorder.attach)
    return {
        "engine": result.engine,
        "calls": recorder.calls,
        "most_acked": recorder.most_acked,
        "sha256": recorder.digest(),
    }


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_sender_state_is_unchanged(cell, monkeypatch, request):
    fingerprint = _fingerprint(monkeypatch, CELLS[cell])
    if request.config.getoption("--update-goldens"):
        golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        golden[cell] = fingerprint
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    golden = json.loads(GOLDEN_PATH.read_text())
    assert fingerprint == golden[cell]
    if cell.endswith("-long"):
        assert fingerprint["most_acked"] > 3 * _COMPACT_AT


def test_both_engines_pinned_the_same_sender_states():
    """Each protocol/queue pair's default-dispatch digest is its forced
    object-engine digest: the batch engine drives the same senders
    through the same states, flow by flow."""
    golden = json.loads(GOLDEN_PATH.read_text())
    pairs = [cell[: -len("default")] for cell in CELLS if cell.endswith("-default")]
    assert len(pairs) == 13
    for pair in pairs:
        default, forced = golden[pair + "default"], golden[pair + "object"]
        assert forced["engine"] == "object"
        assert default["sha256"] == forced["sha256"], pair
