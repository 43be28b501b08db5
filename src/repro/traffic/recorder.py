"""Recording the *offered* (application-level) traffic.

The paper's method is a comparison: the c.o.v. of the aggregate traffic
the applications generate versus the c.o.v. of the aggregate after TCP
has modulated it.  This recorder captures the generation process across
any number of sources so both sides of the comparison come from the
same run.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.cov import bin_counts
from repro.traffic.base import TrafficSource


class OfferedTrafficRecorder:
    """Collects packet generation times across sources."""

    def __init__(self, start_time: float = 0.0) -> None:
        self.start_time = start_time
        self.times: List[float] = []
        self.total = 0

    def attach(self, source: TrafficSource) -> "OfferedTrafficRecorder":
        """Hook this recorder onto a source; returns self."""
        source.add_hook(self.on_generate)
        return self

    def on_generate(self, time: float, n_packets: int) -> None:
        """Generation hook (``TrafficSource.add_hook`` signature)."""
        if time < self.start_time:
            return
        self.total += n_packets
        self.times.extend([time] * n_packets)

    def on_generate_many(self, times: List[float]) -> None:
        """Record one packet per time; same filter as :meth:`on_generate`.

        The batch engine replays a backlogged flow's deferred arrivals
        in one call instead of one hook invocation per packet.
        """
        start = self.start_time
        kept = [t for t in times if t >= start]
        self.total += len(kept)
        self.times.extend(kept)

    def bin_counts(self, bin_width: float, until: Optional[float] = None) -> np.ndarray:
        """Per-bin generation counts over ``[start_time, until)``
        (:func:`repro.core.cov.bin_counts`)."""
        return bin_counts(np.asarray(self.times), bin_width, self.start_time, until)
