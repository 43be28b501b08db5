"""Emission of the burst-forensics records, during the run or at its end.

Every forensics run goes through :class:`ForensicsStream`.  Attached to
a file (``Scenario.attach_forensics_stream``), it writes the records as
JSONL at sim-time checkpoints while the run progresses.  With no file,
the probe builds one at finalize and the records go into the report's
list in that one flush.  Either way the
:class:`~repro.forensics.report.ForensicsReport` is folded from the
same records in the same order, so the two agree on every summary
scalar bit for bit.  Two guarantees:

**Prefix consistency.**  Every record carries a deterministic *emit
key* ``(emit_time, type_rank, tiebreak)``:

* window ``i`` -> ``(window_end(i), 0, i)`` -- a tumbling window is
  final once sim time passes its right edge;
* sync event ``s`` -> ``(s.end + 2 * sync_window, 1, s.time)`` -- a
  cut's coverage depends only on cuts within one window of it, and a
  closed cluster can still be extended by a covered cut up to one
  window past its last member, so nothing after ``end + 2W`` can
  change the cluster;
* burst ``b`` -> ``(max(end + horizon + 2W, max sync key over syncs
  with time <= end + horizon), 2, start)`` -- a burst record embeds
  its sync linkage, so it must outwait every cluster that could still
  link to it (including one that *started* inside the horizon but
  keeps growing).

Each checkpoint emits every record that is provably final, sorted by
key; the runtime finality conditions match the keys exactly, so the
concatenation of checkpoints is the global key-sorted record list
whatever the interval -- any partial stream file is byte-identical to
a prefix of the file the whole run writes, and that file holds the
records an unstreamed run keeps (``tests/test_forensics_stream.py``
holds both to the offline pipeline in ``tests/forensics_reference.py``).

**Bounded memory.**  With a file attached, a record's backing state is
dropped once emitted: tumbling windows once no unresolved episode spans
them, closed episodes at emission, sync events once out of linkage
range (``lookback``) of every unresolved episode, raw cuts once
committed or provably uncovered.  Live state is then O(windows per
episode span + cuts per 2 sync windows), independent of run duration,
and the report keeps the summary only.
"""

from __future__ import annotations

import json
import math
from typing import IO, TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.forensics.bursts import BurstEpisode
from repro.forensics.report import (
    BurstAttribution,
    ForensicsReport,
    Record,
    attribute,
)
from repro.forensics.sync import SyncEvent
from repro.forensics.windows import WindowAccountant, WindowRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.forensics.probe import ForensicsParams, ForensicsProbe

#: type_rank values: at equal emit_time, windows precede syncs precede
#: bursts (a burst record may reference a sync with the same key).
_RANK_WINDOW = 0
_RANK_SYNC = 1
_RANK_BURST = 2

EmitKey = Tuple[float, int, float]

#: The ``type`` each record is written under.
_TYPES = {WindowRecord: "window", SyncEvent: "sync", BurstAttribution: "burst"}


def encode_record(record: Record) -> str:
    """One JSONL line: the record's fields under its ``type``."""
    payload = {"type": _TYPES[type(record)], **record.as_dict()}
    return json.dumps(payload, sort_keys=True)


def _window_key(index: int, exact: WindowAccountant) -> EmitKey:
    return (exact.window_start(index + 1), _RANK_WINDOW, float(index))


def _sync_key(sync: SyncEvent, params: "ForensicsParams") -> EmitKey:
    return (sync.end + 2.0 * params.sync_window, _RANK_SYNC, sync.time)


def _burst_key(
    episode: BurstEpisode,
    syncs: List[SyncEvent],
    params: "ForensicsParams",
) -> EmitKey:
    """A burst is final only after every linkage-candidate sync is.

    Candidates are syncs with ``time <= end + horizon``; one that keeps
    growing past the horizon pushes the burst's key to its own, so the
    burst still sorts (and emits) after it.
    """
    deadline = episode.end + params.sync_horizon
    emit = deadline + 2.0 * params.sync_window
    for sync in syncs:
        if sync.time <= deadline:
            emit = max(emit, sync.end + 2.0 * params.sync_window)
    return (emit, _RANK_BURST, episode.start)


class ForensicsStream:
    """Checkpointed emission driven by the probe's hook calls.

    With a ``sink``, the probe calls :meth:`maybe_flush` from its queue
    hooks (the only clock forensics already observes -- no simulator
    events are scheduled, so enabling the stream cannot change
    ``perf_events_executed``); a flush runs at most once per
    ``interval`` of sim time and writes a ``params`` header first.
    With ``sink=None`` the records go into the report's list instead,
    and nothing is pruned.  :meth:`finalize` flushes everything
    (``now = inf``) and returns the report.
    """

    def __init__(
        self,
        probe: "ForensicsProbe",
        sink: Optional[IO[str]],
        interval: float,
    ) -> None:
        if not interval > 0:
            raise ValueError("stream interval must be positive")
        self.probe = probe
        self.sink = sink
        self.interval = interval
        self.next_flush = interval
        self.records_written = 0
        self._next_window = 0
        self._pending: List[BurstEpisode] = []
        self._syncs: List[SyncEvent] = []
        if sink is None:
            self.report = ForensicsReport(
                probe.params, probe.n_flows, [], probe.exact, probe.sketch
            )
        else:
            self.report = ForensicsReport(probe.params, probe.n_flows)
            header = {"type": "params", "n_flows": probe.n_flows}
            header.update(probe.params.as_dict())
            self._write(json.dumps(header, sort_keys=True))

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _write(self, line: str) -> None:
        self.sink.write(line + "\n")
        self.records_written += 1

    def maybe_flush(self, now: float) -> None:
        if now >= self.next_flush:
            self.flush(now)
            self.next_flush = (
                math.floor(now / self.interval) + 1.0
            ) * self.interval

    def flush(self, now: float) -> None:
        """Emit every record final at sim time ``now``, then prune."""
        probe = self.probe
        params = probe.params
        self._pending.extend(probe.bursts.drain_episodes())
        committed = probe.sync.commit(now)
        if committed:
            self._syncs.extend(committed)
            self._syncs.sort(key=lambda s: s.time)

        # (key, record, the span counts a burst's fold needs)
        batch: List[Tuple[EmitKey, Record, Optional[Dict[int, List[int]]]]] = []
        emitted_window = self._next_window - 1
        for index in probe.exact.windows():
            if index < self._next_window:
                continue
            if probe.exact.window_start(index + 1) > now:
                break
            record = WindowRecord.of(index, probe.exact, probe.sketch, params.top_k)
            batch.append((_window_key(index, probe.exact), record, None))
            emitted_window = index
        self._next_window = emitted_window + 1

        for sync in committed:
            batch.append((_sync_key(sync, params), sync, None))

        min_cut = probe.sync.min_buffered_time
        wait = params.sync_horizon + 2.0 * params.sync_window
        while self._pending:
            episode = self._pending[0]
            if not (
                now > episode.end + wait
                and min_cut > episode.end + params.sync_horizon
            ):
                break
            record = attribute(
                episode, self._syncs, probe.exact, probe.sketch, params
            )
            batch.append(
                (
                    _burst_key(episode, self._syncs, params),
                    record,
                    probe.exact.span_counts(*record.windows),
                )
            )
            self._pending.pop(0)

        batch.sort(key=lambda item: item[0])
        for _, record, span_counts in batch:
            self.report.fold(record, span_counts)
            if self.sink is not None:
                self._write(encode_record(record))
        if self.sink is not None:
            self.sink.flush()
            self._prune(now)

    def _prune(self, now: float) -> None:
        """Drop state no unresolved episode can reference anymore."""
        probe = self.probe
        earliest = now
        if self._pending:
            earliest = min(earliest, self._pending[0].start)
        open_start = probe.bursts.open_start
        if open_start is not None:
            earliest = min(earliest, open_start)
        floor = (
            probe.exact.window_index(earliest)
            if math.isfinite(earliest)
            else self._next_window
        )
        for index in list(probe.exact.windows()):
            if index >= self._next_window or index >= floor:
                break
            probe.exact.drop_window(index)
            probe.sketch.drop_window(index)
        keep_from = earliest - probe.params.sync_lookback
        if self._syncs and self._syncs[0].end < keep_from:
            self._syncs = [s for s in self._syncs if s.end >= keep_from]

    # ------------------------------------------------------------------
    # Finalize
    # ------------------------------------------------------------------
    def finalize(self, end_time: float) -> ForensicsReport:
        """Flush everything and complete the report.

        The probe must have closed the open episode first
        (``bursts.finalize``); ``flush(inf)`` then finds every window
        complete, every cluster committable, and every episode
        resolvable.
        """
        self.flush(math.inf)
        self.report.duration = end_time
        self.report.records_written = self.records_written
        return self.report
