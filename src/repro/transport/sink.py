"""Receiving sinks.

:class:`TcpSink` acknowledges received DATA packets with cumulative
ACKs, optionally under a delayed-ACK policy (ACK every second in-order
packet, or when a timer expires; out-of-order data is ACKed immediately,
producing the duplicate ACKs fast retransmit relies on).

:class:`UdpSink` just counts what arrives.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set

from repro.net.monitor import FlowStats
from repro.net.node import Node
from repro.net.packet import ACK_SIZE_BYTES, Packet, PacketFactory, PacketType
from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.transport.base import Agent

#: ``hook(time, delivered_total)`` -- called whenever the sink's count of
#: in-order delivered application packets advances.  Closed-loop
#: application workloads (:mod:`repro.apps`) use this to observe work-unit
#: completions, so transport backpressure feeds back into offered load.
DeliveryHook = Callable[[float, int], None]

_DATA = PacketType.DATA


class UdpSink(Agent):
    """Counts delivered datagrams; sends nothing back."""

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        flow_id: int,
        peer: str,
        packet_factory: PacketFactory,
    ) -> None:
        super().__init__(sim, node, flow_id, peer, packet_factory)
        self.stats = FlowStats(flow_id)
        self._delivery_hooks: List[DeliveryHook] = []

    def add_delivery_hook(self, hook: DeliveryHook) -> None:
        """Register ``hook(time, delivered_total)`` on each delivery."""
        self._delivery_hooks.append(hook)

    def receive(self, packet: Packet) -> None:
        stats = self.stats
        stats.packets_received += 1
        stats.unique_packets += 1
        stats.bytes_received += packet.size
        for hook in self._delivery_hooks:
            hook(self.sim.now, stats.unique_packets)


class TcpSink(Agent):
    """Cumulative-ACK TCP receiver.

    Sequence numbers count packets; the sink tracks the highest in-order
    packet received and acknowledges with ``ackno`` = that number
    (ns-2 convention).  Out-of-order packets are buffered (a set of seen
    sequence numbers) and trigger an immediate duplicate ACK.

    Args:
        delayed_ack: if True, in-order arrivals are acknowledged every
            second packet or after ``ack_delay`` seconds, whichever comes
            first (RFC 1122 / 2581 behaviour, ns-2's ``DelAck`` sink).
        ack_delay: the delayed-ACK timer interval.
        sack: if True, every ACK carries up to ``MAX_SACK_BLOCKS``
            selective-acknowledgement ranges describing the out-of-order
            packets held in the reassembly buffer (RFC 2018).
    """

    MAX_SACK_BLOCKS = 3

    def __init__(
        self,
        sim: Simulator,
        node: Node,
        flow_id: int,
        peer: str,
        packet_factory: PacketFactory,
        delayed_ack: bool = False,
        ack_delay: float = 0.1,
        sack: bool = False,
    ) -> None:
        super().__init__(sim, node, flow_id, peer, packet_factory)
        self.delayed_ack = delayed_ack
        self.ack_delay = ack_delay
        self.sack = sack
        self._last_oo_seq = -1  # most recent out-of-order arrival
        self.stats = FlowStats(flow_id)
        self.next_expected = 0
        self.acks_sent = 0
        self._buffered: Set[int] = set()
        self._unacked_in_order = 0
        self._pending_ecn_echo = False
        self._delivery_hooks: List[DeliveryHook] = []
        self._delack_timer: Optional[Timer] = None
        if delayed_ack:
            self._delack_timer = Timer(sim, self._delack_expire)

    def add_delivery_hook(self, hook: DeliveryHook) -> None:
        """Register ``hook(time, delivered_total)`` called whenever the
        in-order delivery point (``next_expected``) advances."""
        self._delivery_hooks.append(hook)

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        if packet.ptype is not _DATA:
            return
        now = self.sim.now
        stats = self.stats
        stats.packets_received += 1
        stats.bytes_received += packet.size
        if packet.ecn_ce:
            self._pending_ecn_echo = True

        seq = packet.seqno
        expected = self.next_expected
        if seq == expected:
            expected += 1
            # Drain any previously buffered out-of-order packets.
            buffered = self._buffered
            while expected in buffered:
                buffered.discard(expected)
                expected += 1
            stats.unique_packets += expected - seq
            self.next_expected = expected
            for hook in self._delivery_hooks:
                hook(now, expected)
            if self.delayed_ack:
                self._in_order_ack()
            else:
                self._send_ack()
        elif seq > expected:
            if seq in self._buffered:
                stats.duplicates += 1
            else:
                self._buffered.add(seq)
                self._last_oo_seq = seq
                stats.out_of_order += 1
            # A gap exists: duplicate-ACK immediately (RFC 2581).
            self._send_ack()
        else:
            # Below the cumulative point: a spurious retransmission.
            stats.duplicates += 1
            self._send_ack()

    # ------------------------------------------------------------------
    # ACK generation
    # ------------------------------------------------------------------
    def _in_order_ack(self) -> None:
        """Delayed ACK: every second in-order packet, or at the timer."""
        self._unacked_in_order += 1
        if self._unacked_in_order >= 2:
            self._send_ack()
        else:
            assert self._delack_timer is not None
            if not self._delack_timer.pending:
                self._delack_timer.start(self.ack_delay)

    def _delack_expire(self) -> None:
        if self._unacked_in_order > 0:
            self._send_ack()

    def sack_blocks(self):
        """Current SACK option: contiguous ranges of the reassembly
        buffer, the block containing the latest arrival first (RFC 2018
        ordering), capped at ``MAX_SACK_BLOCKS``."""
        if not self._buffered:
            return ()
        ranges = []
        run_start = None
        previous = None
        for seq in sorted(self._buffered):
            if run_start is None:
                run_start = previous = seq
                continue
            if seq == previous + 1:
                previous = seq
                continue
            ranges.append((run_start, previous))
            run_start = previous = seq
        ranges.append((run_start, previous))
        # Most-recent-first ordering.
        ranges.sort(
            key=lambda block: block[0] <= self._last_oo_seq <= block[1],
            reverse=True,
        )
        return tuple(ranges[: self.MAX_SACK_BLOCKS])

    def _send_ack(self) -> None:
        self._unacked_in_order = 0
        if self._delack_timer is not None:
            self._delack_timer.cancel()
        node = self.node
        ack = self.packet_factory.ack(
            self.flow_id,
            node.name,
            self.peer,
            self.next_expected - 1,
            self.sim.now,
            ACK_SIZE_BYTES,
            self._pending_ecn_echo,
            self.sack_blocks() if self.sack else (),
        )
        self._pending_ecn_echo = False
        self.acks_sent += 1
        node.send(ack)
