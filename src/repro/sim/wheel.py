"""Hierarchical timer wheel: the simulator's pending-event store.

The simulator's schedule/cancel traffic is dominated by near-future
events -- transmission completions, pacing ticks, source ticks, and
TCP retransmission timers a few RTTs out -- and with hundreds of
clients thousands of them are pending at once.  The wheel files them
with O(1) list appends at integer-arithmetic cost, falling back to a
heap only for far-future events beyond the wheel horizon.

Layout (classic two-level hashed wheel, Varghese & Lauck 1987):

* ``_ready`` -- a small heap of entries whose tick has been reached;
  the only structure the pop path touches.
* level 0 -- ``l0_slots`` buckets of one tick each (default tick
  resolution 0.5 ms, so 128 ms of horizon): transmission/pacing events.
* level 1 -- ``l1_slots`` buckets of ``l0_slots`` ticks each
  (default horizon ~33 s): retransmission timers, source restarts.
* ``_overflow`` -- a plain heap for everything beyond level 1.

Entries are ``(time, priority, seq, event)`` tuples, so every ordering
decision is a C-level tuple comparison (``seq`` is unique, so the
``event`` field never participates).  When a bucket's tick is reached
the bucket is sorted and becomes the ready heap; because the sort key
is the engine's full ``(time, priority, seq)`` key, the wheel pops
entries in *exactly* the order a sorted list of them would -- same
times, same FIFO tie-breaks (tests/test_timer_wheel.py checks it
against that model).

Cancellation is O(1) and lazy: cancelled entries are discarded when
they surface at the head of ``_ready``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Iterator, List, Optional, Tuple

#: A queued event: ``(time, priority, seq, event)``.  Compared as a
#: plain tuple; ``seq`` is unique so comparison never reaches ``event``.
WheelEntry = Tuple[float, int, int, Any]


class TimerWheel:
    """Two-level hashed timer wheel with an overflow heap.

    The public surface is intentionally tiny -- ``push``, ``peek``,
    ``pop`` and ``size`` -- because the :class:`~repro.sim.engine.Simulator`
    run loop is the only client.
    """

    __slots__ = (
        "_inv_resolution",
        "_n0",
        "_n1",
        "_cur",
        "_ready",
        "_l0",
        "_l1",
        "_overflow",
        "_l0_count",
        "_l1_count",
        "_size",
    )

    def __init__(
        self,
        start_time: float = 0.0,
        resolution: float = 5e-4,
        l0_slots: int = 256,
        l1_slots: int = 256,
    ) -> None:
        if start_time < 0:
            raise ValueError("timer wheel requires a non-negative start time")
        if resolution <= 0:
            raise ValueError("resolution must be positive")
        if l0_slots < 2 or l1_slots < 2:
            raise ValueError("wheel levels need at least two slots")
        self._inv_resolution = 1.0 / resolution
        self._n0 = l0_slots
        self._n1 = l1_slots
        # The cursor tick: every entry with tick <= _cur lives in _ready.
        self._cur = int(start_time * self._inv_resolution)
        self._ready: List[WheelEntry] = []
        self._l0: List[List[WheelEntry]] = [[] for _ in range(l0_slots)]
        self._l1: List[List[WheelEntry]] = [[] for _ in range(l1_slots)]
        self._overflow: List[WheelEntry] = []
        self._l0_count = 0
        self._l1_count = 0
        self._size = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Total queued entries (cancelled-but-undiscarded included)."""
        return self._size

    def entries(self) -> Iterator[WheelEntry]:
        """Every queued entry, in no particular order (debug/invariants)."""
        for entry in self._ready:
            yield entry
        for slot in self._l0:
            for entry in slot:
                yield entry
        for slot in self._l1:
            for entry in slot:
                yield entry
        for entry in self._overflow:
            yield entry

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(self, entry: WheelEntry) -> None:
        """Insert an entry.  O(1) within the wheel horizon."""
        tick = int(entry[0] * self._inv_resolution)
        cur = self._cur
        self._size += 1
        if tick <= cur:
            # Due this tick (or the cursor already passed it because the
            # clock advanced past empty ticks): straight to ready.
            heappush(self._ready, entry)
            return
        n0 = self._n0
        if tick - cur <= n0:
            self._l0[tick % n0].append(entry)
            self._l0_count += 1
            return
        block = tick // n0
        if block - cur // n0 <= self._n1:
            self._l1[block % self._n1].append(entry)
            self._l1_count += 1
            return
        heappush(self._overflow, entry)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def peek(self) -> Optional[WheelEntry]:
        """The earliest entry, or None when empty.  Advances the cursor
        (pouring buckets into the ready heap) as needed."""
        ready = self._ready
        if ready or self._refill():
            return self._ready[0]
        return None

    def pop(self) -> WheelEntry:
        """Remove and return the earliest entry (``peek`` must have
        returned non-None)."""
        self._size -= 1
        return heappop(self._ready)

    # ------------------------------------------------------------------
    # Cursor advancement
    # ------------------------------------------------------------------
    def _refill(self) -> bool:
        """Advance the cursor until ``_ready`` is non-empty.

        Returns False when the wheel holds nothing at all.
        """
        l0 = self._l0
        n0 = self._n0
        while self._l0_count or self._l1_count or self._overflow:
            cur = self._cur
            boundary = (cur // n0 + 1) * n0
            if self._l0_count:
                tick = cur + 1
                while tick < boundary:
                    slot = l0[tick % n0]
                    if slot:
                        self._cur = tick
                        self._l0_count -= len(slot)
                        l0[tick % n0] = []
                        # A sorted list is a valid binary heap.
                        slot.sort()
                        self._ready = slot
                        return True
                    tick += 1
                self._enter_block(boundary)
            elif self._l1_count:
                self._enter_block(boundary)
            else:
                # Only far-future entries remain: jump the cursor
                # straight to the block holding the earliest one.
                target = int(self._overflow[0][0] * self._inv_resolution) // n0
                self._enter_block(max(boundary, target * n0))
            if self._ready:
                return True
        return False

    def _enter_block(self, start_tick: int) -> None:
        """Move the cursor to a level-0 block boundary: refill level 1
        from the overflow heap, cascade the block's level-1 bucket down
        into level 0, and pour entries already due into ready."""
        n0 = self._n0
        n1 = self._n1
        inv = self._inv_resolution
        self._cur = start_tick
        block = start_tick // n0
        l0 = self._l0
        # Cascade this block's level-1 bucket down *before* draining the
        # overflow heap: a drained entry for block ``block + n1`` hashes
        # to the same level-1 slot, and cascading it here would plant a
        # far-future entry in level 0 (early delivery).
        slot = self._l1[block % n1]
        if slot:
            self._l1[block % n1] = []
            self._l1_count -= len(slot)
            ready = self._ready
            for entry in slot:
                tick = int(entry[0] * inv)
                if tick <= start_tick:
                    heappush(ready, entry)
                else:
                    l0[tick % n0].append(entry)
                    self._l0_count += 1
        # Blocks up to block + n1 are now addressable by level 1.  The
        # overflow heap is time-ordered, hence block-ordered, so a
        # prefix drain suffices.  Entries for the block being entered
        # (reachable when the cursor jumps straight to the overflow
        # top's block) skip level 1 -- its bucket has already cascaded.
        overflow = self._overflow
        horizon = block + n1
        while overflow and int(overflow[0][0] * inv) // n0 <= horizon:
            entry = heappop(overflow)
            tick = int(entry[0] * inv)
            entry_block = tick // n0
            if entry_block == block:
                if tick <= start_tick:
                    heappush(self._ready, entry)
                else:
                    l0[tick % n0].append(entry)
                    self._l0_count += 1
            else:
                self._l1[entry_block % n1].append(entry)
                self._l1_count += 1
        # Entries scheduled directly into level 0 for the boundary tick.
        slot = l0[start_tick % n0]
        if slot:
            l0[start_tick % n0] = []
            self._l0_count -= len(slot)
            ready = self._ready
            for entry in slot:
                heappush(ready, entry)
