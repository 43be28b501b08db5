"""Queueing disciplines: the abstract interface and drop-tail FIFO.

A queue fronts each link transmitter (one per output port).  The
transmitter calls :meth:`PacketQueue.dequeue` whenever it goes idle; the
forwarding path calls :meth:`PacketQueue.enqueue` on arrival.  A queue
decides admission (drop-tail, RED probabilistic drop, ECN marking) and
keeps its own statistics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional

from repro.net.packet import Packet

DropHook = Callable[[Packet, float], None]


@dataclass
class QueueStats:
    """Counters every queue maintains."""

    arrivals: int = 0
    departures: int = 0
    drops: int = 0
    marks: int = 0
    bytes_arrived: int = 0
    bytes_departed: int = 0
    # Time-weighted queue-length integral, for mean occupancy.
    _occupancy_integral: float = 0.0
    _last_change: float = 0.0

    def note_length(self, length: int, now: float) -> None:
        """Account occupancy up to ``now`` (call on every length change)."""
        self._occupancy_integral += length * (now - self._last_change)
        self._last_change = now

    def mean_occupancy(self, duration: float) -> float:
        """Time-averaged queue length over ``duration`` seconds."""
        if duration <= 0:
            return 0.0
        return self._occupancy_integral / duration


class PacketQueue:
    """Base class for queueing disciplines.

    Subclasses implement :meth:`_admit`, returning True to enqueue the
    packet or False to drop it, and may add :meth:`_on_dequeue`.
    Dropped packets are reported to every registered drop hook
    (monitors, transport-layer loss loggers).

    Which of the two a queue's class has is decided once, here: plain
    tail drop (:class:`DropTailQueue`'s rule) is tested inline in
    :meth:`enqueue`, and a class without its own departure hook is
    never called on :meth:`dequeue`.
    """

    def __init__(self, capacity: int, name: str = "queue") -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1 packet")
        self.capacity = capacity
        self.name = name
        self.stats = QueueStats()
        self._packets: Deque[Packet] = deque()
        self._drop_hooks: List[DropHook] = []
        self._enqueue_hooks: List[DropHook] = []
        self._dequeue_hooks: List[DropHook] = []
        self._now: float = 0.0
        #: Why the most recent drop happened (read by drop hooks that
        #: want attribution): "tail_overflow" for a full buffer; RED
        #: distinguishes "red_early" (probabilistic), "red_forced"
        #: (average beyond the band), and "buffer_overflow"; DRR uses
        #: "longest_queue" for its mid-buffer evictions.
        self.last_drop_cause: str = "tail_overflow"
        cls = type(self)
        self._tail_drop = cls._admit is DropTailQueue._admit
        self._calls_on_dequeue = cls._on_dequeue is not PacketQueue._on_dequeue

    # ------------------------------------------------------------------
    # Hook registration
    # ------------------------------------------------------------------
    def add_drop_hook(self, hook: DropHook) -> None:
        """Register ``hook(packet, time)`` to be called on each drop."""
        self._drop_hooks.append(hook)

    def add_enqueue_hook(self, hook: DropHook) -> None:
        """Register ``hook(packet, time)`` called on each admission."""
        self._enqueue_hooks.append(hook)

    def add_dequeue_hook(self, hook: DropHook) -> None:
        """Register ``hook(packet, time)`` called on each departure."""
        self._dequeue_hooks.append(hook)

    # ------------------------------------------------------------------
    # Queue operations
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._packets)

    @property
    def read_length(self) -> Callable[[], int]:
        """``len(self)`` as a callable an observer binds once: the
        deque's own (C) ``__len__`` where the class keeps
        :meth:`__len__`, else the class's own.  Built on each access,
        not stored, so the queue holds no bound method of itself (a
        reference cycle that would keep a released cell's queue, and
        all it references, alive until the cyclic collector runs)."""
        if type(self).__len__ is PacketQueue.__len__:
            return self._packets.__len__
        return self.__len__

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Offer ``packet`` to the queue at time ``now``.

        Returns True if admitted, False if dropped.
        """
        self._now = now
        stats = self.stats
        stats.arrivals += 1
        stats.bytes_arrived += packet.size
        self.last_drop_cause = "tail_overflow"
        packets = self._packets
        if (
            len(packets) < self.capacity
            if self._tail_drop
            else self._admit(packet, now)
        ):
            # stats.note_length(len(packets), now), in place.
            stats._occupancy_integral += len(packets) * (now - stats._last_change)
            stats._last_change = now
            packets.append(packet)
            for hook in self._enqueue_hooks:
                hook(packet, now)
            return True
        self._drop(packet, now)
        return False

    def dequeue(self, now: float) -> Optional[Packet]:
        """Remove and return the head packet, or None if empty."""
        self._now = now
        packets = self._packets
        if not packets:
            return None
        stats = self.stats
        # stats.note_length(len(packets), now), in place.
        stats._occupancy_integral += len(packets) * (now - stats._last_change)
        stats._last_change = now
        packet = packets.popleft()
        stats.departures += 1
        stats.bytes_departed += packet.size
        if self._calls_on_dequeue:
            self._on_dequeue(packet, now)
        for hook in self._dequeue_hooks:
            hook(packet, now)
        return packet

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    def _admit(self, packet: Packet, now: float) -> bool:
        """Admission decision; subclasses override."""
        raise NotImplementedError

    def _on_dequeue(self, packet: Packet, now: float) -> None:
        """Subclass hook called after a packet leaves the queue
        (before the dequeue hooks)."""

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drop(self, packet: Packet, now: float) -> None:
        self.stats.drops += 1
        for hook in self._drop_hooks:
            hook(packet, now)


class DropTailQueue(PacketQueue):
    """Plain FIFO with tail drop -- the paper's "FIFO" gateway discipline.

    :meth:`PacketQueue.enqueue` tests this rule inline for any class
    that keeps it."""

    def _admit(self, packet: Packet, now: float) -> bool:
        return len(self._packets) < self.capacity
