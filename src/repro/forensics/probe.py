"""The live forensics probe a :class:`~repro.experiments.scenario.Scenario` attaches.

One object owns all three detectors and feeds them from two sources:

* the bottleneck queue's enqueue/dequeue/drop hooks (occupancy samples,
  per-packet attribution charges, episode drop counts);
* each TCP sender's :meth:`note_state` transitions, forwarded when the
  state is a multiplicative window cut (:data:`LOSS_STATES`).

Everything is observation-only: the probe never mutates a packet, a
queue decision, or a sender, so enabling forensics cannot change any
physics-derived metric (the config knobs are digest-excluded for the
same reason the obs knobs are).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import IO, TYPE_CHECKING, Dict, Optional

from repro.forensics.bursts import BurstDetector
from repro.forensics.report import ForensicsReport
from repro.forensics.stream import ForensicsStream
from repro.forensics.sync import LossSyncDetector
from repro.forensics.windows import SketchWindowAccountant, WindowAccountant

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.config import ScenarioConfig
    from repro.net.packet import Packet
    from repro.net.queues import PacketQueue

#: ``note_state`` values that are multiplicative window cuts: these are
#: what the loss-synchronization detector counts.  (Recovery exits,
#: partial ACKs and slow-start exits are transitions, not cuts.)
LOSS_STATES = frozenset({"timeout", "fast_retransmit", "ecn_cut"})


@dataclass(frozen=True)
class ForensicsParams:
    """Resolved (absolute-units) forensics knobs."""

    window: float  # attribution window width, seconds
    top_k: int  # culprits ranked per window/burst
    sketch_capacity: int  # space-saving counters per window
    burst_enter: int  # occupancy (packets) opening a burst
    burst_exit: int  # occupancy closing it (hysteresis)
    sync_window: float  # "within one RTT", seconds
    sync_fraction: float  # quorum as a fraction of flows
    sync_lookback: float = 5.0  # preceding-sync search span, seconds
    sync_horizon: float = 2.0  # triggered-sync slack past burst end

    @classmethod
    def from_config(cls, config: "ScenarioConfig") -> "ForensicsParams":
        """Resolve the ScenarioConfig knobs to absolute units.

        Defaults: the attribution and sync windows are one round-trip
        propagation delay (the paper's binning); the sketch gets
        ``4 * top_k`` counters (comfortably above the space-saving
        rule of thumb for recovering a top-k).  Fixed: a burst opens at
        0.6 and closes below 0.3 of the buffer capacity (hysteresis:
        exit below enter), and a synchronization event needs a quorum
        of a quarter of the flows halving cwnd within one RTT (a quarter
        of the population cutting together is already an unambiguous
        wave -- demanding a strict majority misses waves that
        synchronize most but not all flows).
        """
        window = config.forensics_window or config.rtt_prop
        top_k = config.forensics_top_k
        capacity = config.forensics_sketch_capacity or 4 * top_k
        enter = max(1, int(round(0.6 * config.buffer_capacity)))
        exit_ = min(int(round(0.3 * config.buffer_capacity)), enter - 1)
        return cls(
            window=window,
            top_k=top_k,
            sketch_capacity=capacity,
            burst_enter=enter,
            burst_exit=max(exit_, 0),
            sync_window=config.rtt_prop,
            sync_fraction=0.25,
        )

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)


class ForensicsProbe:
    """Streams one run's gateway events into the three detectors."""

    def __init__(
        self,
        params: ForensicsParams,
        n_flows: int,
        queue: Optional["PacketQueue"] = None,
    ) -> None:
        self.params = params
        self.n_flows = n_flows
        self.exact = WindowAccountant(params.window)
        self.sketch = SketchWindowAccountant(params.window, params.sketch_capacity)
        self.bursts = BurstDetector(params.burst_enter, params.burst_exit)
        self.sync = LossSyncDetector(
            n_flows, params.sync_window, params.sync_fraction
        )
        self.queue: Optional["PacketQueue"] = None
        self.stream: Optional[ForensicsStream] = None
        self._report: Optional[ForensicsReport] = None
        if queue is not None:
            self.attach(queue)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, queue: "PacketQueue") -> "ForensicsProbe":
        """Register on the queue's enqueue/dequeue/drop hooks."""
        self.queue = queue
        self._length = queue.read_length
        queue.add_enqueue_hook(self._on_enqueue)
        queue.add_dequeue_hook(self._on_dequeue)
        queue.add_drop_hook(self._on_drop)
        return self

    def stream_to(self, sink: IO[str], interval: float) -> ForensicsStream:
        """Write the records to ``sink`` as JSONL while the run goes,
        flushing final ones roughly every ``interval`` sim seconds.

        Checkpoints piggyback on the queue hooks the probe already
        owns (no simulator events are scheduled), so streaming cannot
        change event counts or any physics-derived metric.  After a
        streamed run the report :meth:`finalize` returns keeps the
        summary only.
        """
        if self.stream is not None:
            raise RuntimeError("forensics stream already attached")
        self.stream = ForensicsStream(self, sink, interval)
        return self.stream

    # ------------------------------------------------------------------
    # Hook bodies
    # ------------------------------------------------------------------
    def _on_enqueue(self, packet: "Packet", now: float) -> None:
        self.exact.record(packet.flow_id, now, packet.size)
        self.sketch.record(packet.flow_id, now, packet.size)
        self.bursts.on_sample(now, self._length())
        # The stream is called only at a checkpoint (its own test, in
        # place: these hooks run once a packet).
        stream = self.stream
        if stream is not None and now >= stream.next_flush:
            stream.maybe_flush(now)

    def _on_dequeue(self, packet: "Packet", now: float) -> None:
        self.bursts.on_sample(now, self._length())
        stream = self.stream
        if stream is not None and now >= stream.next_flush:
            stream.maybe_flush(now)

    def _on_drop(self, packet: "Packet", now: float) -> None:
        self.bursts.on_drop(now, self.queue.last_drop_cause)

    def on_flow_state(self, flow_id: int, now: float, state: str) -> None:
        """A sender's ``note_state`` transition (all states forwarded;
        only multiplicative cuts are counted)."""
        if state in LOSS_STATES:
            self.sync.on_loss(flow_id, now)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def finalize(self, end_time: float) -> ForensicsReport:
        """Close the open episode, flush the stream and return its
        report (idempotent).

        With no stream file attached the records go into the report's
        list, in this one flush.
        """
        if self._report is None:
            self.bursts.finalize(end_time)
            if self.stream is None:
                self.stream = ForensicsStream(self, None, math.inf)
            self._report = self.stream.finalize(end_time)
        return self._report
