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
