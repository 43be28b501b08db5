"""Deficit Round Robin (DRR) fair queueing with longest-queue drop.

Shreedhar & Varghese, "Efficient Fair Queueing Using Deficit Round
Robin" (SIGCOMM 1995).  Not one of the paper's gateway disciplines, but
the natural third point on its axis: FIFO multiplexes blindly, RED
polices the *aggregate* average, DRR isolates the *flows* -- so when
TCP synchronizes the streams, DRR shows how much of the damage per-flow
scheduling can undo.

* one FIFO per flow, served round-robin; each flow's turn earns a
  byte ``quantum``, and it may send packets while its deficit covers
  them (long packets cannot starve short ones);
* buffer sharing with *longest-queue drop*: when the shared buffer is
  full the packet at the tail of the currently longest per-flow queue
  is evicted (McKenney-style buffer stealing), so a flow bursting ahead
  of its fair share pays for the overflow it causes.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, Optional

from repro.net.packet import Packet
from repro.net.queues import PacketQueue


class DRRQueue(PacketQueue):
    """Deficit-round-robin fair queue over a shared buffer."""

    def __init__(
        self,
        capacity: int,
        quantum: int = 1000,
        name: str = "drr",
    ) -> None:
        super().__init__(capacity, name=name)
        if quantum < 1:
            raise ValueError("quantum must be at least 1 byte")
        self.quantum = quantum
        # Per-flow FIFOs in round-robin order (OrderedDict keeps the
        # service rotation stable and O(1) to rotate).
        self._flows: "OrderedDict[int, Deque[Packet]]" = OrderedDict()
        self._deficits: Dict[int, int] = {}
        self._total = 0

    # ------------------------------------------------------------------
    # Size accounting (overrides the single-deque base behaviour)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._total

    def flow_queue_length(self, flow_id: int) -> int:
        """Packets queued for one flow (0 if none)."""
        queue = self._flows.get(flow_id)
        return len(queue) if queue else 0

    # ------------------------------------------------------------------
    # Enqueue with longest-queue drop
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> bool:
        self.stats.arrivals += 1
        self.stats.bytes_arrived += packet.size
        if self._total >= self.capacity:
            victim_flow = self._longest_flow()
            incoming_longer = (
                self.flow_queue_length(packet.flow_id)
                >= self.flow_queue_length(victim_flow)
            )
            if incoming_longer:
                # The arriving flow is (one of) the hogs: drop the arrival.
                self.last_drop_cause = "longest_queue"
                self._drop(packet, now)
                return False
            # The interval that ends here was held at the full length.
            self.stats.note_length(self._total, now)
            victim = self._flows[victim_flow].pop()  # tail of the hog
            self._total -= 1
            self.last_drop_cause = "longest_queue"
            self._drop(victim, now)
        self.stats.note_length(self._total, now)
        queue = self._flows.get(packet.flow_id)
        if queue is None:
            queue = deque()
            self._flows[packet.flow_id] = queue
            self._deficits[packet.flow_id] = 0
        queue.append(packet)
        self._total += 1
        for hook in self._enqueue_hooks:
            hook(packet, now)
        return True

    def _longest_flow(self) -> int:
        return max(self._flows, key=lambda f: len(self._flows[f]))

    # ------------------------------------------------------------------
    # DRR service
    # ------------------------------------------------------------------
    def dequeue(self, now: float) -> Optional[Packet]:
        if self._total == 0:
            return None
        while True:
            flow_id, queue = next(iter(self._flows.items()))
            if not queue:
                # Idle flow leaves the rotation (and forfeits deficit).
                del self._flows[flow_id]
                del self._deficits[flow_id]
                continue
            if self._deficits[flow_id] >= queue[0].size:
                self.stats.note_length(self._total, now)
                packet = queue.popleft()
                self._deficits[flow_id] -= packet.size
                self._total -= 1
                if not queue:
                    del self._flows[flow_id]
                    del self._deficits[flow_id]
                self.stats.departures += 1
                self.stats.bytes_departed += packet.size
                for hook in self._dequeue_hooks:
                    hook(packet, now)
                return packet
            # Turn over: earn a quantum and go to the back of the rotation.
            self._deficits[flow_id] += self.quantum
            self._flows.move_to_end(flow_id)

    # The base-class hooks operate on self._packets; DRR replaces the
    # whole data path above, so they must never be reached.
    def _admit(self, packet: Packet, now: float) -> bool:  # pragma: no cover
        raise AssertionError("DRRQueue overrides enqueue() directly")
