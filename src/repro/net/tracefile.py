"""ns-2-compatible packet trace files.

The original study's raw artifacts were ns trace files; this module
writes (and reads back) the same line format for any monitored queue,
so existing ns-2 post-processing scripts work on our runs:

    <op> <time> <src-node> <dst-node> <type> <size> <flags> <fid> \
        <src-addr> <dst-addr> <seqno> <pkt-uid>

with op ``+`` (enqueue), ``-`` (dequeue), ``d`` (drop).  Addresses are
rendered ns-style as ``flow.0``/``flow.1``.

One deliberate deviation from ns: ``+`` is written only for *admitted*
packets (ns also writes ``+`` for a packet it drops on arrival), so
that ``+`` lines are exactly the traffic the queue carried; ``d`` lines
cover both refused arrivals and packets evicted by disciplines that
drop from the middle of the buffer (DRR's longest-queue drop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Iterator, List, Optional

from repro.net.packet import Packet, PacketType
from repro.net.queues import PacketQueue


@dataclass(frozen=True)
class TraceRecord:
    """One parsed trace line."""

    op: str
    time: float
    src_node: str
    dst_node: str
    ptype: str
    size: int
    flow_id: int
    seqno: int
    uid: int


class NsTraceWriter:
    """Stream ns-format trace lines for one monitored output port."""

    def __init__(
        self,
        stream: IO[str],
        src_node: str = "gateway",
        dst_node: str = "server",
    ) -> None:
        self._stream = stream
        self.src_node = src_node
        self.dst_node = dst_node
        self.lines_written = 0

    def attach(self, queue: PacketQueue) -> "NsTraceWriter":
        """Record the queue's +/-/d events; returns self."""
        queue.add_enqueue_hook(self._hook("+"))
        queue.add_dequeue_hook(self._hook("-"))
        queue.add_drop_hook(self._hook("d"))
        return self

    def _hook(self, op: str):
        def write(packet: Packet, now: float) -> None:
            self.write_event(op, packet, now)

        return write

    def write_event(self, op: str, packet: Packet, now: float) -> None:
        """Write one trace line."""
        ptype = "tcp" if packet.ptype is PacketType.DATA else "ack"
        line = (
            f"{op} {now:.6f} {self.src_node} {self.dst_node} {ptype} "
            f"{packet.size} ------- {packet.flow_id} "
            f"{packet.flow_id}.0 {packet.flow_id}.1 {packet.seqno} {packet.uid}\n"
        )
        self._stream.write(line)
        self.lines_written += 1


def parse_trace_lines(lines: Iterable[str]) -> Iterator[TraceRecord]:
    """Parse ns trace lines, skipping blanks and comments."""
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) < 12:
            raise ValueError(f"malformed trace line: {line!r}")
        yield TraceRecord(
            op=fields[0],
            time=float(fields[1]),
            src_node=fields[2],
            dst_node=fields[3],
            ptype=fields[4],
            size=int(fields[5]),
            flow_id=int(fields[7]),
            seqno=int(fields[10]),
            uid=int(fields[11]),
        )


def read_trace(path: str) -> List[TraceRecord]:
    """Read a whole trace file."""
    with open(path) as handle:
        return list(parse_trace_lines(handle))


def arrival_times(
    records: Iterable[TraceRecord],
    op: str = "+",
    data_only: bool = True,
    flow_id: Optional[int] = None,
) -> List[float]:
    """Event times of one op (the input to the c.o.v. machinery).

    This is how an ns-2 user of the original study would have extracted
    the gateway arrival process from their trace files.
    """
    times = []
    for record in records:
        if record.op != op:
            continue
        if data_only and record.ptype != "tcp":
            continue
        if flow_id is not None and record.flow_id != flow_id:
            continue
        times.append(record.time)
    return times
