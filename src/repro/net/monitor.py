"""Measurement instruments.

* :class:`ArrivalMonitor` -- counts the DATA packets offered to an
  output port per fixed-width time bin, in aggregate and per flow.
  Binned by the round-trip propagation delay it yields exactly the
  counts whose c.o.v. the paper's Figure 2 plots; the per-flow counts
  feed cross-stream dependence analysis (:mod:`repro.core.dependence`).
* :class:`FlowStats` -- per-flow delivery counters kept by sinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.cov import FOLD_SIZE, BinCounter
from repro.net.link import Interface
from repro.net.packet import Packet


class ArrivalMonitor:
    """Bin the DATA packets offered to an output port over
    ``[t_start, t_end)`` (:class:`repro.core.cov.BinCounter`).

    Only DATA packets are counted (ACKs traverse the reverse path and do
    not contribute to the forward aggregate the paper measures).  With
    ``per_flow`` a flow also gets a counter of its own, created at its
    first DATA arrival at or after ``t_start``.
    """

    def __init__(
        self, bin_width: float, t_start: float, t_end: float, per_flow: bool = False
    ) -> None:
        self.total = BinCounter(bin_width, t_start, t_end)
        self._pending = self.total.pending
        self.per_flow = per_flow
        self.flows: Dict[int, BinCounter] = {}

    def attach(self, interface: Interface) -> "ArrivalMonitor":
        """Hook this monitor onto an output port; returns self."""
        interface.add_send_hook(self.on_packet)
        if self.per_flow:
            interface.add_send_hook(self.on_flow_packet)
        return self

    def on_packet(self, packet: Packet, now: float) -> None:
        """Count one arrival in the aggregate (send-hook signature)."""
        if packet.is_data:
            pending = self._pending
            pending.append(now)
            if len(pending) >= FOLD_SIZE:
                self.total.fold()

    def on_flow_packet(self, packet: Packet, now: float) -> None:
        """Count one arrival in its flow's counter (send-hook signature)."""
        total = self.total
        if not packet.is_data or now < total.t_start:
            return
        counter = self.flows.get(packet.flow_id)
        if counter is None:
            counter = self.flows[packet.flow_id] = BinCounter(
                total.bin_width, total.t_start, total.t_end
            )
        counter.add(now)

    def counts(self) -> np.ndarray:
        """Per-bin aggregate arrival counts; trailing empty bins count."""
        return self.total.counts()

    def flow_counts(self) -> Optional[Dict[int, np.ndarray]]:
        """Per-bin arrival counts of every flow seen, by flow id (None
        unless ``per_flow``)."""
        if not self.per_flow:
            return None
        return {flow: counter.counts() for flow, counter in self.flows.items()}


@dataclass
class FlowStats:
    """Delivery counters for one flow, kept at the receiving sink."""

    flow_id: int
    packets_received: int = 0
    bytes_received: int = 0
    unique_packets: int = 0  # in-order progress (retransmit duplicates excluded)
    duplicates: int = 0
    out_of_order: int = 0
