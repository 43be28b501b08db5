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
live scenario.  Every run's findings leave through one pipeline,
:class:`~repro.forensics.stream.ForensicsStream`: window, sync and
burst records in a deterministic emit-key order, written to a JSONL
file at checkpoints while the run goes (prefix-consistent, bounded
memory) or, with no file, kept in a list.
:class:`~repro.forensics.report.ForensicsReport` is the fold over those
records that a finished run carries out (tables, JSONL/CSV export,
summary metrics).
"""

from repro.forensics.bursts import BurstDetector, BurstEpisode
from repro.forensics.probe import LOSS_STATES, ForensicsParams, ForensicsProbe
from repro.forensics.report import BurstAttribution, ForensicsReport
from repro.forensics.stream import ForensicsStream
from repro.forensics.sync import LossSyncDetector, SyncEvent, link_bursts
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
    "LOSS_STATES",
    "LossSyncDetector",
    "SketchWindowAccountant",
    "SpaceSavingSketch",
    "SyncEvent",
    "WindowAccountant",
    "link_bursts",
    "precision_at_k",
    "recall_at_k",
]
