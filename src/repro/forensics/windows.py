"""Per-window flow attribution: exact accounting and the sketch.

Time is cut into tumbling windows of fixed width (default: one
round-trip propagation delay, the paper's binning).  Every packet the
gateway admits is charged to ``(window, flow)``; the per-window top-k by
bytes is the attribution the burst report ranks culprits with.

Two implementations of the same interface:

* :class:`WindowAccountant` keeps exact per-flow counters per window --
  the ground truth, free in a simulator;
* :class:`SketchWindowAccountant` keeps one bounded-memory space-saving
  sketch per window (``m`` counters regardless of flow count), the
  variant a real switch data plane could afford.  Its estimates
  overshoot true counts by at most ``W / m`` where ``W`` is the
  window's total weight (Metwally et al., the space-saving bound).
  Sketch-side rankings and byte figures use the *guaranteed* weight
  (estimate minus overestimation error): under eviction churn a
  newcomer's inherited floor can dwarf its true traffic, so ranking by
  raw estimates promotes freshly-evicted-and-readmitted flows, while
  the guarantee only counts bytes certainly attributable to the flow.

:func:`precision_at_k` cross-validates the two, tie-tolerantly: a
sketch pick counts as a hit when its *exact* weight reaches the k-th
largest exact weight, so permutations among tied flows are not
penalized.  :class:`WindowRecord` is one window's attribution as the
forensics stream emits it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class FlowShare:
    """One flow's contribution to one window (or window span)."""

    flow_id: int
    packets: int
    bytes: int
    share: float  # fraction of the span's total bytes

    def as_dict(self) -> Dict[str, object]:
        return {
            "flow_id": self.flow_id,
            "packets": self.packets,
            "bytes": self.bytes,
            "share": self.share,
        }


def ranked_shares(
    counts: Dict[int, List[int]], k: Optional[int] = None
) -> List[FlowShare]:
    """Rank ``{flow: [packets, bytes]}`` into FlowShare rows by bytes
    (the top ``k``, or all); shares are of the whole of ``counts``.

    Ties break on flow id so the ranking is deterministic.
    """
    total = sum(entry[1] for entry in counts.values())
    ranked = sorted(counts.items(), key=lambda item: (-item[1][1], item[0]))
    if k is not None:
        ranked = ranked[:k]
    return [
        FlowShare(
            flow_id=flow,
            packets=entry[0],
            bytes=entry[1],
            share=entry[1] / total if total else 0.0,
        )
        for flow, entry in ranked
    ]


class WindowAccountant:
    """Exact per-window, per-flow packet/byte counters."""

    def __init__(self, window: float, start: float = 0.0) -> None:
        if window <= 0:
            raise ValueError("window width must be positive")
        self.window = window
        self.start = start
        # window index -> flow id -> [packets, bytes]
        self._windows: Dict[int, Dict[int, List[int]]] = {}

    def window_index(self, time: float) -> int:
        return int((time - self.start) // self.window)

    def window_start(self, index: int) -> float:
        return self.start + index * self.window

    def record(self, flow_id: int, time: float, nbytes: int) -> None:
        """Charge one admitted packet to its (window, flow) cell."""
        # window_index(time), in place: this runs once a packet.
        index = int((time - self.start) // self.window)
        counts = self._windows.setdefault(index, {})
        entry = counts.get(flow_id)
        if entry is None:
            counts[flow_id] = [1, nbytes]
        else:
            entry[0] += 1
            entry[1] += nbytes

    def windows(self) -> List[int]:
        """Window indices that saw traffic, ascending."""
        return sorted(self._windows)

    def window_counts(self, index: int) -> Dict[int, List[int]]:
        return self._windows.get(index, {})

    def window_total_bytes(self, index: int) -> int:
        return sum(e[1] for e in self._windows.get(index, {}).values())

    def top_k(self, index: int, k: int) -> List[FlowShare]:
        """The window's k heaviest flows by bytes (ties by flow id)."""
        return ranked_shares(self._windows.get(index, {}), k)

    def span_counts(self, first: int, last: int) -> Dict[int, List[int]]:
        """Summed ``{flow: [packets, bytes]}`` over windows first..last."""
        merged: Dict[int, List[int]] = {}
        for index in range(first, last + 1):
            for flow, entry in self._windows.get(index, {}).items():
                slot = merged.setdefault(flow, [0, 0])
                slot[0] += entry[0]
                slot[1] += entry[1]
        return merged

    def drop_window(self, index: int) -> None:
        """Discard one window's counters (streaming memory bound)."""
        self._windows.pop(index, None)


class SpaceSavingSketch:
    """Space-saving heavy hitters: ``capacity`` counters, any key count.

    On overflow the minimum-weight entry is evicted and the newcomer
    inherits its weight as a floor (recorded as the newcomer's error
    bound), so every tracked estimate satisfies
    ``true <= estimate <= true + error`` with
    ``error <= total_weight / capacity``.
    """

    __slots__ = ("capacity", "total_weight", "_weights", "_counts", "_errors")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("sketch capacity must be at least 1")
        self.capacity = capacity
        self.total_weight = 0
        self._weights: Dict[int, int] = {}
        self._counts: Dict[int, int] = {}  # packet counts, same policy
        self._errors: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._weights)

    def update(self, key: int, weight: int = 1) -> None:
        """Add one packet of ``weight`` (bytes) for ``key``."""
        self.total_weight += weight
        weights = self._weights
        if key in weights:
            weights[key] += weight
            self._counts[key] += 1
            return
        if len(weights) < self.capacity:
            weights[key] = weight
            self._counts[key] = 1
            self._errors[key] = 0
            return
        # Evict the minimum-weight entry (ties by key, deterministic);
        # the newcomer inherits its weight floor as error.  The
        # (weight, key) pairs are compared in C: a key function would
        # be a Python call per tracked key.
        victim = min(zip(weights.values(), weights.keys()))[1]
        floor_weight = weights.pop(victim)
        floor_count = self._counts.pop(victim)
        self._errors.pop(victim)
        weights[key] = floor_weight + weight
        self._counts[key] = floor_count + 1
        self._errors[key] = floor_weight

    def estimate(self, key: int) -> int:
        """Estimated weight (0 for untracked keys)."""
        return self._weights.get(key, 0)

    def error(self, key: int) -> int:
        """Overshoot bound of this key's estimate (0 if exact)."""
        return self._errors.get(key, 0)

    def guaranteed(self, key: int) -> int:
        """Weight certainly attributable to ``key``: estimate - error."""
        return max(self._weights.get(key, 0) - self._errors.get(key, 0), 0)

    @property
    def max_error(self) -> float:
        """The sketch-wide guarantee: total_weight / capacity."""
        return self.total_weight / self.capacity

    def entries(self) -> List[Tuple[int, int, int, int]]:
        """``(key, weight, count, error)`` rows, best guarantee first.

        Ranked by guaranteed weight (``weight - error``) descending, ties
        by key: the error term is an inherited eviction floor, not the
        key's own traffic, so the guarantee -- not the raw estimate --
        is what identifies true heavy hitters under churn.
        """
        return sorted(
            (
                (key, self._weights[key], self._counts[key], self._errors[key])
                for key in self._weights
            ),
            key=lambda row: (-(row[1] - row[3]), row[0]),
        )

    def top_k(self, k: int) -> List[Tuple[int, int, int, int]]:
        return self.entries()[:k]


class SketchWindowAccountant:
    """Bounded-memory twin of :class:`WindowAccountant`.

    One space-saving sketch per tumbling window: state while a window
    is open is ``O(capacity)`` regardless of how many flows exist, which
    is the deployability claim the cross-validation tests check against
    the exact accountant.
    """

    def __init__(self, window: float, capacity: int, start: float = 0.0) -> None:
        if window <= 0:
            raise ValueError("window width must be positive")
        self.window = window
        self.capacity = capacity
        self.start = start
        self._windows: Dict[int, SpaceSavingSketch] = {}

    def window_index(self, time: float) -> int:
        return int((time - self.start) // self.window)

    def record(self, flow_id: int, time: float, nbytes: int) -> None:
        # window_index(time), in place: this runs once a packet.
        index = int((time - self.start) // self.window)
        sketch = self._windows.get(index)
        if sketch is None:
            sketch = self._windows[index] = SpaceSavingSketch(self.capacity)
        sketch.update(flow_id, nbytes)

    def windows(self) -> List[int]:
        return sorted(self._windows)

    def sketch(self, index: int) -> Optional[SpaceSavingSketch]:
        return self._windows.get(index)

    def top_k(self, index: int, k: int) -> List[FlowShare]:
        """The window's k best-guaranteed flows (bytes = lower bound)."""
        sketch = self._windows.get(index)
        if sketch is None:
            return []
        total = sketch.total_weight
        return [
            FlowShare(
                flow_id=key,
                packets=count,
                bytes=weight - error,
                share=(weight - error) / total if total else 0.0,
            )
            for key, weight, count, error in sketch.top_k(k)
        ]

    def span_counts(self, first: int, last: int) -> Dict[int, List[int]]:
        """Summed guaranteed weights over windows first..last.

        Merging sums per-key guarantees (each a lower bound, so the sum
        is one too), mirroring register readout + aggregation on a real
        switch.
        """
        merged: Dict[int, List[int]] = {}
        for index in range(first, last + 1):
            sketch = self._windows.get(index)
            if sketch is None:
                continue
            for key, weight, count, error in sketch.entries():
                slot = merged.setdefault(key, [0, 0])
                slot[0] += count
                slot[1] += weight - error
        return merged

    def drop_window(self, index: int) -> None:
        """Discard one window's sketch (streaming memory bound)."""
        self._windows.pop(index, None)


@dataclass(frozen=True)
class WindowRecord:
    """One tumbling window's attribution as the stream emits it: both
    top-k rankings and the sketch's precision@k against the exact one."""

    window: int
    start: float
    end: float
    total_bytes: int
    exact_top: List[FlowShare]
    sketch_top: List[FlowShare]
    precision: float

    @classmethod
    def of(
        cls,
        index: int,
        exact: WindowAccountant,
        sketch: SketchWindowAccountant,
        k: int,
    ) -> "WindowRecord":
        sketch_top = sketch.top_k(index, k)
        return cls(
            window=index,
            start=exact.window_start(index),
            end=exact.window_start(index + 1),
            total_bytes=exact.window_total_bytes(index),
            exact_top=exact.top_k(index, k),
            sketch_top=sketch_top,
            precision=precision_at_k(
                ranked_shares(exact.window_counts(index)), sketch_top, k
            ),
        )

    def as_dict(self) -> Dict[str, object]:
        # Spelled out: dataclasses.asdict deep-copies, ~25x the cost,
        # paid on every window a streamed run writes.
        return {
            "window": self.window,
            "start": self.start,
            "end": self.end,
            "total_bytes": self.total_bytes,
            "exact_top": [s.as_dict() for s in self.exact_top],
            "sketch_top": [s.as_dict() for s in self.sketch_top],
            "precision": self.precision,
        }


def precision_at_k(
    exact: List[FlowShare], approx: List[FlowShare], k: int
) -> float:
    """Fraction of the sketch's top-k that belong in the exact top-k.

    Tie-tolerant: an approximate pick is a hit when its exact byte count
    is at least the k-th largest exact byte count, so swapping equally
    heavy flows costs nothing.  Returns 1.0 when there is nothing to
    rank (no exact traffic).
    """
    if not exact:
        return 1.0
    k = min(k, len(exact))
    threshold = exact[k - 1].bytes
    exact_bytes = {s.flow_id: s.bytes for s in exact}
    hits = sum(
        1 for s in approx[:k] if exact_bytes.get(s.flow_id, 0) >= threshold
    )
    return hits / k
