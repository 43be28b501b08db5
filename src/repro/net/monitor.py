"""Measurement instruments.

* :class:`ArrivalMonitor` -- counts packets offered to an output port in
  fixed-width time bins.  Binned by the round-trip propagation delay it
  yields exactly the counts whose c.o.v. the paper's Figure 2 plots.
* :class:`FlowArrivalMonitor` -- per-flow arrival times at an output
  port, for cross-stream dependence analysis.
* :class:`FlowStats` -- per-flow delivery counters kept by sinks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.net.link import Interface
from repro.net.packet import Packet


class ArrivalMonitor:
    """Bin packet arrivals at an output port into fixed-width windows.

    Only DATA packets are counted (ACKs traverse the reverse path and do
    not contribute to the forward aggregate the paper measures).
    """

    def __init__(self, bin_width: float, start_time: float = 0.0) -> None:
        if bin_width <= 0:
            raise ValueError("bin width must be positive")
        self.bin_width = bin_width
        self.start_time = start_time
        self._counts: List[int] = []

    def attach(self, interface: Interface) -> "ArrivalMonitor":
        """Hook this monitor onto an output port; returns self."""
        interface.add_send_hook(self.on_packet)
        return self

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_packet(self, packet: Packet, now: float) -> None:
        """Record one arrival (send-hook signature)."""
        if not packet.is_data or now < self.start_time:
            return
        index = int((now - self.start_time) / self.bin_width)
        counts = self._counts
        if index >= len(counts):
            counts.extend([0] * (index + 1 - len(counts)))
        counts[index] += 1

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def counts(self, until: Optional[float] = None) -> np.ndarray:
        """Per-bin arrival counts.

        Args:
            until: if given, pad/truncate so the array covers exactly
                ``[start_time, until)`` -- trailing empty bins count.
        """
        counts = np.asarray(self._counts, dtype=float)
        if until is None:
            return counts
        n_bins = int((until - self.start_time) / self.bin_width)
        if n_bins <= 0:
            return np.zeros(0)
        if len(counts) >= n_bins:
            return counts[:n_bins]
        return np.concatenate([counts, np.zeros(n_bins - len(counts))])


class FlowArrivalMonitor:
    """Record per-flow DATA arrival times at an output port.

    The raw material for cross-stream dependence analysis
    (:mod:`repro.core.dependence`): who sent what into the gateway,
    when, flow by flow.
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self.start_time = start_time
        self.times_by_flow: dict = {}

    def attach(self, interface: Interface) -> "FlowArrivalMonitor":
        """Hook onto an output port; returns self."""
        interface.add_send_hook(self.on_packet)
        return self

    def on_packet(self, packet: Packet, now: float) -> None:
        """Record one arrival (send-hook signature)."""
        if not packet.is_data or now < self.start_time:
            return
        self.times_by_flow.setdefault(packet.flow_id, []).append(now)


@dataclass
class FlowStats:
    """Delivery counters for one flow, kept at the receiving sink."""

    flow_id: int
    packets_received: int = 0
    bytes_received: int = 0
    unique_packets: int = 0  # in-order progress (retransmit duplicates excluded)
    duplicates: int = 0
    out_of_order: int = 0
