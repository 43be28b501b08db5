"""Burst forensics: who caused *this* burst at the gateway?

The paper's headline measure (the c.o.v. of queue arrivals) reports the
aggregate *symptom* of TCP-induced burstiness; this package supplies the
per-event *diagnosis* a production operator needs:

* :mod:`repro.forensics.bursts` segments the bottleneck-queue occupancy
  series into burst episodes (threshold + hysteresis);
* :mod:`repro.forensics.windows` attributes each time window's queue
  build-up to flows, twice: an exact per-packet accountant (ground
  truth, free in a simulator) and a bounded-memory space-saving sketch
  (what a real switch could deploy), cross-validated against each other;
* :mod:`repro.forensics.sync` detects loss-synchronization events
  (a quorum of flows halving cwnd within one RTT) and links each burst
  to the sync event that preceded or accompanied it -- the paper's
  claimed mechanism, now checkable per episode.

:class:`~repro.forensics.probe.ForensicsProbe` wires all three onto a
live scenario; :class:`~repro.forensics.report.ForensicsReport` is what
a finished run carries out (tables, JSONL/CSV export, summary metrics).
:mod:`repro.forensics.stream` adds the incremental mode: the same
records emitted mid-run as a prefix-consistent JSONL stream with
bounded memory, finishing in a summary-only
:class:`~repro.forensics.stream.ForensicsStreamReport`.
"""

from repro.forensics.bursts import BurstDetector, BurstEpisode
from repro.forensics.probe import LOSS_STATES, ForensicsParams, ForensicsProbe
from repro.forensics.report import BurstAttribution, ForensicsReport
from repro.forensics.stream import (
    ForensicsStream,
    ForensicsStreamReport,
    offline_stream_lines,
    offline_stream_records,
)
from repro.forensics.sync import (
    IncrementalSyncClusterer,
    LossSyncDetector,
    SyncEvent,
    link_bursts,
)
from repro.forensics.windows import (
    FlowShare,
    SketchWindowAccountant,
    SpaceSavingSketch,
    WindowAccountant,
    precision_at_k,
    recall_at_k,
)

__all__ = [
    "BurstAttribution",
    "BurstDetector",
    "BurstEpisode",
    "FlowShare",
    "ForensicsParams",
    "ForensicsProbe",
    "ForensicsReport",
    "ForensicsStream",
    "ForensicsStreamReport",
    "IncrementalSyncClusterer",
    "LOSS_STATES",
    "LossSyncDetector",
    "SketchWindowAccountant",
    "SpaceSavingSketch",
    "SyncEvent",
    "WindowAccountant",
    "link_bursts",
    "offline_stream_lines",
    "offline_stream_records",
    "precision_at_k",
    "recall_at_k",
]
