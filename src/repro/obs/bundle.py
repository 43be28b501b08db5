"""The observability bundle a run carries out of the simulator.

:class:`ObsBundle` packages everything the flight recorder captured in
one scenario -- the engine profile, per-flow TCP series, queue series
and the forensics report -- derives a scalar snapshot from the series,
and knows how to export itself as JSONL (one object per sample,
streaming-friendly) or CSV.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.engineprof import EngineProfile
from repro.obs.probes import FlowProbe, QueueProbe
from repro.obs.series import TimeSeries

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.forensics.report import ForensicsReport


#: Rows encoded and written at a time: one chunk of text is all the
#: writer holds (the whole of a long queue series is tens of MB).
_CHUNK_ROWS = 4096


def _encode_column(values: Sequence[Any]) -> Iterable[str]:
    """JSON text of each value of one column, as ``json.dumps`` writes
    it: at C speed when every value has the one plain type, through
    ``json.dumps`` itself for anything else (bool, None, NaN/inf,
    subclasses, nested or mixed values)."""
    kinds = set(map(type, values))
    if kinds == {float} and all(map(math.isfinite, values)):
        return map(float.__repr__, values)
    if kinds == {int}:
        return map(int.__repr__, values)
    if kinds == {str}:
        return map(encode_basestring_ascii, values)
    return [json.dumps(value, sort_keys=True) for value in values]


def _encode_chunk(values: Any, kind: str) -> Iterable[str]:
    """JSON text of each value of one chunk of a column of ``kind``: a
    typed chunk is unboxed once (``tolist``) and its ints, or its floats
    when all are finite, go straight to ``repr``; anything else goes
    through :func:`_encode_column`."""
    if kind == "O":
        return _encode_column(values)
    values = values.tolist()
    if kind == "q":
        return map(int.__repr__, values)
    if all(map(math.isfinite, values)):
        return map(float.__repr__, values)
    return _encode_column(values)


def _write_jsonl(path: str, series: TimeSeries, extra: Dict[str, Any]) -> int:
    """Write one series as JSONL rows; returns rows written.

    Byte for byte what ``json.dumps(record, sort_keys=True)`` per row
    writes, for ``record`` = ``extra``, then ``time``, then the columns
    (a later name shadowing an earlier one): the sorted key order is
    laid out once, as a ``%``-template with the constants of ``extra``
    already encoded, and the values are encoded a column slice at a
    time.
    """
    source = {name: index for index, name in enumerate(("time", *series.columns))}
    keys = sorted(extra.keys() | source.keys())
    template = "{%s}\n" % ", ".join(
        "%s: %s" % (
            encode_basestring_ascii(key).replace("%", "%%"),
            "%s" if key in source
            else json.dumps(extra[key], sort_keys=True).replace("%", "%%"),
        )
        for key in keys
    )
    stored = [
        (series.data[source[key]], series.kinds[source[key]])
        for key in keys
        if key in source
    ]
    n_rows = len(series)
    with open(path, "a", encoding="utf-8") as handle:
        for start in range(0, n_rows, _CHUNK_ROWS):
            stop = start + _CHUNK_ROWS
            encoded = [
                _encode_chunk(column[start:stop], kind) for column, kind in stored
            ]
            handle.write("".join(map(template.__mod__, zip(*encoded))))
    return n_rows


def _write_csv(path: str, series: TimeSeries, extra: Dict[str, Any]) -> int:
    """Append one series to a CSV file (header written once)."""
    new_file = not os.path.exists(path)
    with open(path, "a", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        if new_file:
            writer.writerow([*extra.keys(), "time", *series.columns])
        for row in zip(*series.data):
            writer.writerow([*extra.values(), *row])
    return len(series)


@dataclass
class ObsBundle:
    """Everything one run's flight recorder captured.

    Attributes:
        categories: the trace categories that were enabled; they decide
            which names :meth:`snapshot` reports.
        engine: engine profile summary (None when profiling was off).
        flows: per-flow probes keyed by flow id.
        queue: bottleneck-queue probe (None when queue tracing was off).
        forensics: burst-forensics report (None when forensics was off).
    """

    categories: Tuple[str, ...] = ()
    engine: Optional[EngineProfile] = None
    flows: Dict[int, FlowProbe] = field(default_factory=dict)
    queue: Optional[QueueProbe] = None
    forensics: Optional["ForensicsReport"] = None

    # ------------------------------------------------------------------
    # Summary counts (the obs_* fields of ScenarioMetrics)
    # ------------------------------------------------------------------
    @property
    def n_cwnd_samples(self) -> int:
        return sum(len(probe.cwnd) for probe in self.flows.values())

    @property
    def n_rtt_samples(self) -> int:
        return sum(len(probe.rtt) for probe in self.flows.values())

    @property
    def n_state_transitions(self) -> int:
        return sum(len(probe.states) for probe in self.flows.values())

    @property
    def n_queue_samples(self) -> int:
        return len(self.queue.occupancy) if self.queue is not None else 0

    @property
    def n_drop_events(self) -> int:
        return len(self.queue.drops) if self.queue is not None else 0

    def snapshot(self) -> Dict[str, Any]:
        """Scalar view of every enabled series, keyed by name.

        Each series gets a ``{columns, n_rows}`` summary; three values
        are derived from the rows: each flow's state-transition count,
        the queue's largest occupancy length (0.0 when that is 0), and
        its drop count per cause.
        """
        enabled = set(self.categories)
        snapshot: Dict[str, Any] = {}
        for flow_id, probe in self.flows.items():
            for category, series in (
                ("cwnd", probe.cwnd), ("rtt", probe.rtt), ("state", probe.states)
            ):
                if category in enabled:
                    snapshot[series.name] = series.snapshot()
            if "state" in enabled:
                snapshot[f"state.transitions.flow.{flow_id}"] = len(probe.states)
        queue = self.queue
        if queue is not None and "queue" in enabled:
            snapshot[queue.occupancy.name] = queue.occupancy.snapshot()
            depth = max(queue.occupancy.column("length"), default=0)
            snapshot[f"queue.max_depth.{queue.queue.name}"] = depth or 0.0
        if queue is not None and "drops" in enabled:
            snapshot[queue.drops.name] = queue.drops.snapshot()
            for cause, count in queue.drop_causes.items():
                snapshot[f"drops.cause.{cause}"] = count
        return dict(sorted(snapshot.items()))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self, directory: str, fmt: str = "jsonl") -> List[str]:
        """Write every captured artifact into ``directory``.

        Files (per enabled capture, empty captures skipped):

        * ``engine_profile.json`` -- the engine profile summary;
        * ``flow_cwnd.<fmt>``     -- per-flow cwnd/ssthresh series;
        * ``flow_rtt.<fmt>``      -- per-flow RTT estimator series;
        * ``flow_state.<fmt>``    -- per-flow state transitions;
        * ``queue_occupancy.<fmt>`` -- queue length + RED average;
        * ``queue_drops.<fmt>``   -- per-drop events with cause;
        * ``forensic_bursts.<fmt>``      -- burst episodes + sync links;
        * ``forensic_attribution.<fmt>`` -- per-window top-k rankings
          (exact and sketch rows side by side);
        * ``forensic_sync.<fmt>`` -- loss-synchronization events;
        * ``forensics.json``      -- the full forensics report payload;
        * ``registry.json``       -- the scalar :meth:`snapshot`.

        Returns the list of paths written.
        """
        if fmt not in ("jsonl", "csv"):
            raise ValueError(f"unknown export format {fmt!r}; use jsonl or csv")
        os.makedirs(directory, exist_ok=True)
        write = _write_jsonl if fmt == "jsonl" else _write_csv
        written: List[str] = []

        def emit(filename: str, series: TimeSeries, extra: Dict[str, Any]) -> None:
            if not len(series):  # disabled category or nothing captured
                return
            path = os.path.join(directory, filename)
            fresh = path not in written
            if fresh and os.path.exists(path):
                os.remove(path)  # re-exports replace, appends accumulate
            if write(path, series, extra) and fresh:
                written.append(path)

        if self.engine is not None:
            path = os.path.join(directory, "engine_profile.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(self.engine.as_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            written.append(path)

        for flow_id in sorted(self.flows):
            probe = self.flows[flow_id]
            extra = {"flow_id": flow_id}
            emit(f"flow_cwnd.{fmt}", probe.cwnd, extra)
            emit(f"flow_rtt.{fmt}", probe.rtt, extra)
            emit(f"flow_state.{fmt}", probe.states, extra)

        if self.queue is not None:
            extra = {"queue": self.queue.queue.name}
            emit(f"queue_occupancy.{fmt}", self.queue.occupancy, extra)
            emit(f"queue_drops.{fmt}", self.queue.drops, extra)

        if self.forensics is not None:
            for name, series in self.forensics.to_series():
                emit(f"{name}.{fmt}", series, {})
            path = os.path.join(directory, "forensics.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(
                    self.forensics.as_dict(), handle, indent=2, sort_keys=True
                )
                handle.write("\n")
            written.append(path)

        snapshot = self.snapshot()
        if snapshot:
            path = os.path.join(directory, "registry.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle, indent=2, sort_keys=True)
                handle.write("\n")
            written.append(path)
        return written
