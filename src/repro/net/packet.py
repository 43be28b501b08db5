"""Packets.

Packets are the unit of simulation.  Following ns-2's ``Agent/TCP`` (the
agent the paper used), TCP here is *packet-counted*: sequence numbers
number whole packets, and windows/buffers are measured in packets.  That
matches every number the paper reports (cwnd in packets, buffer size in
packets, advertised window in packets).

At large N packet allocation is one of the simulator's hottest paths, so
:class:`Packet` is a ``__slots__`` class (no instance dict) and
:class:`PacketFactory` keeps a free list: delivered packets that nothing
references any more are handed back via ``PacketFactory.recycle``
(the engine's arg-recycler hook does this; see
:meth:`repro.sim.engine.Simulator.set_arg_recycler`) and reused by the
next mint.  Both mint paths reinitialize *every* field, so a recycled
packet can never leak stale state (an old ECN mark, a stale SACK block)
into a fresh packet.
"""

from __future__ import annotations

import enum
import itertools
from typing import List, Tuple

# A SACK block: an inclusive (first, last) range of received packets.
SackBlock = Tuple[int, int]


class PacketType(enum.Enum):
    """What a packet carries."""

    DATA = "data"
    ACK = "ack"


class Packet:
    """One simulated packet.

    Attributes:
        uid: globally unique id (for tracing and debugging).
        flow_id: id of the transport flow the packet belongs to.
        src: name of the originating node.
        dst: name of the destination node.
        size: on-wire size in bytes (determines transmission time).
        ptype: DATA or ACK.
        seqno: packet sequence number (DATA packets; -1 otherwise).
        ackno: highest in-order sequence received (ACK packets; -1 otherwise).
        created_at: simulated time the packet was created.
        is_retransmit: True if this DATA packet is a retransmission.
        ecn_capable: ECT -- sender supports Explicit Congestion Notification.
        ecn_ce: CE -- congestion experienced, set by an ECN-marking queue.
        ecn_echo: ECE -- carried on ACKs back to the sender.
        sack_blocks: selective-ACK option on ACKs -- up to three inclusive
            (first, last) ranges of out-of-order packets the receiver holds.
    """

    __slots__ = (
        "uid",
        "flow_id",
        "src",
        "dst",
        "size",
        "ptype",
        "seqno",
        "ackno",
        "created_at",
        "is_retransmit",
        "ecn_capable",
        "ecn_ce",
        "ecn_echo",
        "sack_blocks",
    )

    def __init__(
        self,
        uid: int,
        flow_id: int,
        src: str,
        dst: str,
        size: int,
        ptype: PacketType,
        seqno: int = -1,
        ackno: int = -1,
        created_at: float = 0.0,
        is_retransmit: bool = False,
        ecn_capable: bool = False,
        ecn_ce: bool = False,
        ecn_echo: bool = False,
        sack_blocks: Tuple[SackBlock, ...] = (),
    ) -> None:
        self.uid = uid
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.size = size
        self.ptype = ptype
        self.seqno = seqno
        self.ackno = ackno
        self.created_at = created_at
        self.is_retransmit = is_retransmit
        self.ecn_capable = ecn_capable
        self.ecn_ce = ecn_ce
        self.ecn_echo = ecn_echo
        self.sack_blocks = sack_blocks

    @property
    def is_data(self) -> bool:
        """True for DATA packets."""
        return self.ptype is PacketType.DATA

    @property
    def is_ack(self) -> bool:
        """True for ACK packets."""
        return self.ptype is PacketType.ACK

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "DATA" if self.is_data else "ACK"
        num = self.seqno if self.is_data else self.ackno
        return (
            f"<Packet #{self.uid} {kind} flow={self.flow_id} "
            f"{self.src}->{self.dst} n={num} {self.size}B>"
        )


# Size of a pure acknowledgement, in bytes (TCP/IP headers only).
ACK_SIZE_BYTES = 40


class PacketFactory:
    """Mints packets with unique ids.

    One factory per simulation keeps uids dense and runs reproducible.
    Retired packets handed to ``recycle(packet)`` are reused by the
    next mint; recycling is purely an allocation optimization -- a
    recycled packet is indistinguishable from a fresh one because the
    mint paths assign every field.  The caller asserts nothing
    references the packet any more (the engine's arg-recycler proves
    this with a refcount check).

    ``recycle`` is the free list's own ``append``: the engine calls it
    after every event that carried a packet, and a bound C method
    enters no Python frame.  The list needs no bound of its own: a mint
    allocates only when it is empty, so it never holds more packets
    than were alive at once earlier in the run.
    """

    __slots__ = ("_counter", "_free", "recycle")

    def __init__(self) -> None:
        self._counter = itertools.count()
        self._free: List[Packet] = []
        self.recycle = self._free.append

    def data(
        self,
        flow_id: int,
        src: str,
        dst: str,
        size: int,
        seqno: int,
        now: float,
        is_retransmit: bool = False,
        ecn_capable: bool = False,
    ) -> Packet:
        """Create a DATA packet."""
        free = self._free
        if free:
            packet = free.pop()
            packet.uid = next(self._counter)
            packet.flow_id = flow_id
            packet.src = src
            packet.dst = dst
            packet.size = size
            packet.ptype = PacketType.DATA
            packet.seqno = seqno
            packet.ackno = -1
            packet.created_at = now
            packet.is_retransmit = is_retransmit
            packet.ecn_capable = ecn_capable
            packet.ecn_ce = False
            packet.ecn_echo = False
            packet.sack_blocks = ()
            return packet
        return Packet(
            uid=next(self._counter),
            flow_id=flow_id,
            src=src,
            dst=dst,
            size=size,
            ptype=PacketType.DATA,
            seqno=seqno,
            created_at=now,
            is_retransmit=is_retransmit,
            ecn_capable=ecn_capable,
        )

    def ack(
        self,
        flow_id: int,
        src: str,
        dst: str,
        ackno: int,
        now: float,
        size: int = ACK_SIZE_BYTES,
        ecn_echo: bool = False,
        sack_blocks: Tuple[SackBlock, ...] = (),
    ) -> Packet:
        """Create an ACK packet."""
        free = self._free
        if free:
            packet = free.pop()
            packet.uid = next(self._counter)
            packet.flow_id = flow_id
            packet.src = src
            packet.dst = dst
            packet.size = size
            packet.ptype = PacketType.ACK
            packet.seqno = -1
            packet.ackno = ackno
            packet.created_at = now
            packet.is_retransmit = False
            packet.ecn_capable = False
            packet.ecn_ce = False
            packet.ecn_echo = ecn_echo
            packet.sack_blocks = sack_blocks
            return packet
        return Packet(
            uid=next(self._counter),
            flow_id=flow_id,
            src=src,
            dst=dst,
            size=size,
            ptype=PacketType.ACK,
            ackno=ackno,
            created_at=now,
            ecn_echo=ecn_echo,
            sack_blocks=sack_blocks,
        )
