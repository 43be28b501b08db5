"""Measurement instruments.

* :class:`ArrivalMonitor` -- counts the DATA packets offered to an
  output port per fixed-width time bin and per flow.  Binned by the
  round-trip propagation delay its column sums are exactly the counts
  whose c.o.v. the paper's Figure 2 plots; its rows feed cross-stream
  dependence analysis (:mod:`repro.core.dependence`).
* :class:`FlowStats` -- per-flow delivery counters kept by sinks.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from repro.core.cov import FOLD_SIZE, bin_counts, window_bins
from repro.net.link import Interface
from repro.net.packet import Packet, PacketType

_DATA = PacketType.DATA


class ArrivalMonitor:
    """Bin the DATA packets offered to an output port over
    ``[t_start, t_end)``, one row of counts per flow id.

    Only DATA packets are counted (ACKs traverse the reverse path and do
    not contribute to the forward aggregate the paper measures).  The
    send hook appends each arrival's time and flow id to two typed
    columns; every :data:`~repro.core.cov.FOLD_SIZE` arrivals, and when
    read, one ``np.bincount`` over ``flow * (bins + 1) + bin`` folds them
    into the ``(flows, bins)`` matrix under the window rule of
    :func:`repro.core.cov.bin_counts` (:func:`~repro.core.cov.window_bins`;
    the extra column is the bin past the last one, which counts nothing).
    Row ``i`` is flow ``i``, up to the largest flow id that arrived
    inside the window.
    """

    def __init__(self, bin_width: float, t_start: float, t_end: float) -> None:
        self.bin_width = bin_width
        self.t_start = t_start
        # As many bins as bin_counts gives the window, after its checks.
        self.n_bins = bin_counts((), bin_width, t_start, t_end).size
        self.times = array("d")
        self.flows = array("i")
        self._rows = np.zeros((0, self.n_bins))

    def attach(self, interface: Interface) -> "ArrivalMonitor":
        """Hook this monitor onto an output port; returns self."""
        interface.add_send_hook(self.on_packet)
        return self

    def on_packet(self, packet: Packet, now: float) -> None:
        """Record one arrival (send-hook signature)."""
        if packet.ptype is _DATA:
            times = self.times
            times.append(now)
            self.flows.append(packet.flow_id)
            if len(times) >= FOLD_SIZE:
                self.fold()

    def fold(self) -> None:
        """Bin the recorded arrivals into the matrix and clear them."""
        n_bins = self.n_bins
        width = n_bins + 1
        # The numpy views must be gone before the arrays shrink (an array
        # with an exported buffer refuses to resize).
        times = np.frombuffer(self.times)
        in_window, keys = window_bins(times, self.bin_width, self.t_start, n_bins)
        keys += np.frombuffer(self.flows, dtype=np.intc)[in_window] * np.int64(width)
        del times
        del self.times[:], self.flows[:]
        if not keys.size:
            return
        n_flows = int(keys.max()) // width + 1
        counts = np.bincount(keys, minlength=n_flows * width)
        rows = self._rows
        if n_flows > len(rows):
            grown = np.zeros((n_flows, n_bins))
            grown[: len(rows)] = rows
            rows = self._rows = grown
        rows[:n_flows] += counts.reshape(n_flows, width)[:, :n_bins]

    def flow_counts(self) -> np.ndarray:
        """Per-bin arrival counts, one row per flow id: the monitor's
        own matrix, which later arrivals add to."""
        self.fold()
        return self._rows

    def counts(self) -> np.ndarray:
        """Per-bin aggregate arrival counts: the matrix's column sums."""
        return self.flow_counts().sum(axis=0)


@dataclass
class FlowStats:
    """Delivery counters for one flow, kept at the receiving sink."""

    flow_id: int
    packets_received: int = 0
    bytes_received: int = 0
    unique_packets: int = 0  # in-order progress (retransmit duplicates excluded)
    duplicates: int = 0
    out_of_order: int = 0
