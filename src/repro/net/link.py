"""Links: output ports with finite rate, propagation delay, and a queue.

An :class:`Interface` is one *direction* of a link: the sending side's
output port.  It owns a queueing discipline and a transmitter.  Packets
offered while the transmitter is busy wait in the queue (or are dropped
by the discipline); the wire itself pipelines any number of packets.

A :class:`Link` is the full-duplex pair of interfaces between two nodes,
matching the paper's "full-duplex link with bandwidth mu and delay tau".
"""

from __future__ import annotations

from typing import Callable, List, TYPE_CHECKING

from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, PacketQueue
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.node import Node

SendHook = Callable[[Packet, float], None]


class Interface:
    """One direction of a link: queue + transmitter + wire."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        dst_node: "Node",
        rate_bps: float,
        delay: float,
        queue: PacketQueue,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        if delay < 0:
            raise ValueError("propagation delay cannot be negative")
        self._sim = sim
        self.name = name
        self.dst_node = dst_node
        self.rate_bps = float(rate_bps)
        self.delay = float(delay)
        self.queue = queue
        self._busy = False
        self._send_hooks: List[SendHook] = []
        self.packets_sent = 0
        self.bytes_sent = 0

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def add_send_hook(self, hook: SendHook) -> None:
        """Register ``hook(packet, time)`` called on every packet offered
        to this output port (before the admission decision)."""
        self._send_hooks.append(hook)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> None:
        """Offer a packet to this output port."""
        now = self._sim.now
        for hook in self._send_hooks:
            hook(packet, now)
        if self.queue.enqueue(packet, now) and not self._busy:
            self._pull()

    def transmission_time(self, packet: Packet) -> float:
        """Seconds needed to clock ``packet`` onto the wire."""
        return packet.size * 8.0 / self.rate_bps

    @property
    def busy(self) -> bool:
        """True while a packet is being transmitted."""
        return self._busy

    def _pull(self) -> None:
        sim = self._sim
        now = sim.now
        packet = self.queue.dequeue(now)
        if packet is None:
            return
        self._busy = True
        # transmission_time(), in place; schedule()'s own now + delay.
        sim.schedule_at(now + packet.size * 8.0 / self.rate_bps, self._finish, packet)

    def _finish(self, packet: Packet) -> None:
        self.packets_sent += 1
        self.bytes_sent += packet.size
        sim = self._sim
        now = sim.now
        # The wire pipelines: propagation proceeds while the transmitter
        # starts on the next queued packet.
        sim.schedule_at(now + self.delay, self.dst_node.receive, packet)
        # _pull() in place: most departures leave an empty queue behind.
        packet = self.queue.dequeue(now)
        if packet is None:
            self._busy = False
        else:
            sim.schedule_at(now + packet.size * 8.0 / self.rate_bps, self._finish, packet)


class Link:
    """A full-duplex link: two symmetric interfaces.

    Each direction gets its own queue; by default both are generous
    drop-tail queues (loss is meant to happen at the bottleneck port,
    which the topology builder configures explicitly).
    """

    def __init__(
        self,
        sim: Simulator,
        node_a: "Node",
        node_b: "Node",
        rate_bps: float,
        delay: float,
        queue_ab: PacketQueue = None,
        queue_ba: PacketQueue = None,
        default_capacity: int = 1000,
    ) -> None:
        name_ab = f"{node_a.name}->{node_b.name}"
        name_ba = f"{node_b.name}->{node_a.name}"
        if queue_ab is None:
            queue_ab = DropTailQueue(default_capacity, name=f"q:{name_ab}")
        if queue_ba is None:
            queue_ba = DropTailQueue(default_capacity, name=f"q:{name_ba}")
        self.forward = Interface(sim, name_ab, node_b, rate_bps, delay, queue_ab)
        self.reverse = Interface(sim, name_ba, node_a, rate_bps, delay, queue_ba)
        node_a.attach_interface(node_b.name, self.forward)
        node_b.attach_interface(node_a.name, self.reverse)
