"""The forensics report: a fold over the records one run emitted.

Every run's records come out of :class:`~repro.forensics.stream.ForensicsStream`
in emit-key order: one :class:`~repro.forensics.windows.WindowRecord`
per attribution window, one :class:`~repro.forensics.sync.SyncEvent`
per loss-sync cluster, and one :class:`BurstAttribution` per burst
episode -- the exact and sketch top-k culprit rankings over the windows
the burst spans, the tie-tolerant precision of the sketch ranking
against the exact one, and the loss-sync linkage (which synchronization
event preceded or was triggered by this burst).  :class:`ForensicsReport`
folds each record as it is emitted.  It renders as text tables, exports
through :meth:`~repro.obs.bundle.ObsBundle.export` as JSONL/CSV series,
and flattens into the ``forensic_*`` fields of
:class:`~repro.experiments.results.ScenarioMetrics`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.analysis.tables import format_table
from repro.forensics.bursts import BurstEpisode
from repro.forensics.sync import SyncEvent, link_bursts
from repro.forensics.windows import (
    FlowShare,
    SketchWindowAccountant,
    WindowAccountant,
    WindowRecord,
    precision_at_k,
    ranked_shares,
)
from repro.obs.series import TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.forensics.probe import ForensicsParams


@dataclass
class BurstAttribution:
    """One burst episode with culprits ranked and its sync linkage."""

    episode: BurstEpisode
    windows: Tuple[int, int]  # first/last window index spanned
    exact_top: List[FlowShare] = field(default_factory=list)
    sketch_top: List[FlowShare] = field(default_factory=list)
    #: mean per-window precision@k over the span's non-empty windows
    precision: float = float("nan")
    sync_relation: str = ""  # "preceding" | "triggered" | ""
    sync_time: float = float("nan")
    sync_flows: int = 0

    @property
    def sync_linked(self) -> bool:
        return bool(self.sync_relation)

    @property
    def top_flow(self) -> int:
        return self.exact_top[0].flow_id if self.exact_top else -1

    @property
    def top_share(self) -> float:
        return self.exact_top[0].share if self.exact_top else float("nan")

    def as_dict(self) -> Dict[str, Any]:
        return {
            **self.episode.as_dict(),
            "windows": list(self.windows),
            "exact_top": [s.as_dict() for s in self.exact_top],
            "sketch_top": [s.as_dict() for s in self.sketch_top],
            "precision": self.precision,
            "sync_relation": self.sync_relation,
            "sync_time": self.sync_time,
            "sync_flows": self.sync_flows,
        }


#: What the stream emits after its ``params`` header.
Record = Union[WindowRecord, SyncEvent, BurstAttribution]


def attribute(
    episode: BurstEpisode,
    syncs: List[SyncEvent],
    exact: WindowAccountant,
    sketch: SketchWindowAccountant,
    params: "ForensicsParams",
) -> BurstAttribution:
    """Rank culprits over the episode's window span and link a sync.

    The culprit tables rank over the whole span; precision is the mean
    *per-window* precision@k across the span's non-empty windows, since
    the per-window ranking is what the bounded-memory sketch actually
    computes (span merging accumulates eviction floors across windows
    and would test an artifact of aggregation, not the data structure).
    """
    ((relation, sync),) = link_bursts(
        [episode], syncs, params.sync_lookback, params.sync_horizon
    )
    first = exact.window_index(episode.start)
    last = exact.window_index(episode.end)
    window_precisions = [
        precision_at_k(
            ranked_shares(exact.window_counts(index)),
            sketch.top_k(index, params.top_k),
            params.top_k,
        )
        for index in range(first, last + 1)
        if exact.window_counts(index)
    ]
    return BurstAttribution(
        episode=episode,
        windows=(first, last),
        exact_top=ranked_shares(exact.span_counts(first, last), params.top_k),
        sketch_top=ranked_shares(sketch.span_counts(first, last), params.top_k),
        precision=_mean(window_precisions),
        sync_relation=relation,
        sync_time=sync.time if sync is not None else float("nan"),
        sync_flows=sync.n_flows if sync is not None else 0,
    )


def _mean(values: List[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return sum(finite) / len(finite) if finite else float("nan")


class ForensicsReport:
    """Everything one run's burst forensics concluded.

    A fold over the records the stream emitted, in emission order, plus
    each burst's per-flow ``[packets, bytes]`` over its window span,
    which no record carries (the stream sums them from the exact
    accountant as it emits the burst).  With no stream file the report
    also keeps the records themselves, and the unpruned ``exact`` and
    ``sketch`` accountants they were cut from: the attribution figure
    needs every flow's per-window counts.  A run streamed to a file
    keeps the summary only; ``records`` is None and the per-record
    detail is in the file.
    """

    def __init__(
        self,
        params: "ForensicsParams",
        n_flows: int,
        records: Optional[List[Record]] = None,
        exact: Optional[WindowAccountant] = None,
        sketch: Optional[SketchWindowAccountant] = None,
    ) -> None:
        self.params = params
        self.n_flows = n_flows
        self.records = records
        self.exact = exact
        self.sketch = sketch
        self.duration = float("nan")  # set when the run is finalized
        self.records_written = 0  # stream-file lines, header included
        self.n_sync_events = 0
        self.n_sync_linked = 0
        self.burst_drops = 0
        # Per burst, in emission order: every float summary is reduced
        # from these lists alone, so a streamed and an unstreamed run of
        # one cell agree to the bit.
        self._durations: List[float] = []
        self._precisions: List[float] = []
        self._totals: Dict[int, List[int]] = {}

    def fold(
        self, record: Record, span_counts: Optional[Dict[int, List[int]]] = None
    ) -> None:
        """Account one emitted record (a burst comes with its span's
        per-flow counts)."""
        if self.records is not None:
            self.records.append(record)
        if isinstance(record, SyncEvent):
            self.n_sync_events += 1
        elif isinstance(record, BurstAttribution):
            self._durations.append(record.episode.duration)
            self._precisions.append(record.precision)
            self.n_sync_linked += record.sync_linked
            self.burst_drops += record.episode.drops
            for flow, entry in span_counts.items():
                slot = self._totals.setdefault(flow, [0, 0])
                slot[0] += entry[0]
                slot[1] += entry[1]

    # ------------------------------------------------------------------
    # The records (empty when they went to a stream file)
    # ------------------------------------------------------------------
    @property
    def bursts(self) -> List[BurstAttribution]:
        return [r for r in self.records or () if isinstance(r, BurstAttribution)]

    @property
    def sync_events(self) -> List[SyncEvent]:
        return [r for r in self.records or () if isinstance(r, SyncEvent)]

    # ------------------------------------------------------------------
    # Summary scalars (the forensic_* fields of ScenarioMetrics)
    # ------------------------------------------------------------------
    @property
    def n_bursts(self) -> int:
        return len(self._durations)

    @property
    def precision(self) -> float:
        """Mean per-burst precision@k of the sketch vs the exact top-k."""
        return _mean(self._precisions)

    @property
    def burst_time_fraction(self) -> float:
        """Fraction of the run spent inside a burst episode."""
        if self.duration <= 0:
            return float("nan")
        return sum(self._durations) / self.duration

    @property
    def burst_rate(self) -> float:
        """Burst episodes per second of simulated time.

        Finite (0.0 with no bursts) whenever forensics ran at all --
        the sweep layer uses that as its "forensics present" marker.
        """
        if self.duration <= 0:
            return float("nan")
        return self.n_bursts / self.duration

    @property
    def burst_duration_mean(self) -> float:
        """Mean episode duration in seconds (NaN with no bursts)."""
        return _mean(self._durations)

    @property
    def sync_linked_fraction(self) -> float:
        """Fraction of bursts linked to a loss-sync event (NaN if none)."""
        if not self.n_bursts:
            return float("nan")
        return self.n_sync_linked / self.n_bursts

    @property
    def top_flow(self) -> int:
        """The single heaviest contributor across all burst windows."""
        if not self._totals:
            return -1
        return ranked_shares(self._totals, 1)[0].flow_id

    @property
    def top_flow_share(self) -> float:
        if not self._totals:
            return float("nan")
        return ranked_shares(self._totals, 1)[0].share

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Stable payload for JSON export and the golden test."""
        payload = {
            "params": self.params.as_dict(),
            "n_flows": self.n_flows,
            "duration": self.duration,
            "n_bursts": self.n_bursts,
            "n_sync_events": self.n_sync_events,
            "n_sync_linked": self.n_sync_linked,
            "precision_at_k": self.precision,
            "burst_time_fraction": self.burst_time_fraction,
            "top_flow": self.top_flow,
            "top_flow_share": self.top_flow_share,
        }
        if self.records is None:
            payload["streamed_records"] = self.records_written
        else:
            payload["bursts"] = [b.as_dict() for b in self.bursts]
            payload["sync_events"] = [s.as_dict() for s in self.sync_events]
        return payload

    def to_series(self) -> List[Tuple[str, TimeSeries]]:
        """``(name, series)`` pairs for :meth:`ObsBundle.export` (none
        when the records already went to a stream file)."""
        if self.records is None:
            return []
        bursts = TimeSeries(
            "forensic_bursts",
            columns=(
                "end",
                "duration",
                "peak",
                "peak_time",
                "drops",
                "top_flow",
                "top_share",
                "precision",
                "sync_relation",
                "sync_time",
            ),
        )
        attribution = TimeSeries(
            "forensic_attribution",
            columns=(
                "window",
                "source",
                "rank",
                "flow_id",
                "packets",
                "bytes",
                "share",
            ),
        )
        syncs = TimeSeries(
            "forensic_sync", columns=("end", "n_flows", "fraction")
        )
        for record in self.records:
            if isinstance(record, WindowRecord):
                for source, shares in (
                    ("exact", record.exact_top),
                    ("sketch", record.sketch_top),
                ):
                    for rank, share in enumerate(shares, start=1):
                        attribution.append(
                            record.start,
                            record.window,
                            source,
                            rank,
                            share.flow_id,
                            share.packets,
                            share.bytes,
                            share.share,
                        )
            elif isinstance(record, SyncEvent):
                syncs.append(
                    record.time, record.end, record.n_flows, record.fraction
                )
            else:
                e = record.episode
                bursts.append(
                    e.start,
                    e.end,
                    e.duration,
                    e.peak,
                    e.peak_time,
                    e.drops,
                    record.top_flow,
                    record.top_share,
                    record.precision,
                    record.sync_relation,
                    record.sync_time,
                )
        return [
            ("forensic_bursts", bursts),
            ("forensic_attribution", attribution),
            ("forensic_sync", syncs),
        ]

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def render(self, top: Optional[int] = None) -> str:
        """Text report: the summary, then the episode table, per-burst
        culprits and sync events (or, after a run streamed to a file,
        a pointer to the stream)."""
        top = top if top is not None else self.params.top_k
        streamed = self.records is None
        lines: List[str] = []
        if self.n_bursts:
            tag = f" (streamed, {self.records_written} records)" if streamed else ""
            lines.append(
                f"Burst forensics{tag}: {self.n_bursts} burst(s), "
                f"{self.n_sync_events} sync event(s), "
                f"{self.n_sync_linked}/{self.n_bursts} sync-linked"
            )
        else:
            tag = " (streamed)" if streamed else ""
            lines.append(f"Burst forensics{tag}: no burst episodes detected")
        precision = self.precision
        if not math.isnan(precision):
            lines.append(
                f"sketch-vs-exact precision@{self.params.top_k}: "
                f"{precision:.3f} "
                f"(sketch: {self.params.sketch_capacity} counters)"
            )
        if streamed:
            lines.append(
                "per-episode detail is on the stream "
                "(offline mode keeps it in the report)"
            )
            return "\n".join(lines)
        bursts = self.bursts
        if bursts:
            rows = [
                [
                    i,
                    round(b.episode.start, 3),
                    round(b.episode.end, 3),
                    b.episode.peak,
                    b.episode.drops,
                    b.sync_relation or "-",
                    (
                        round(b.sync_time, 3)
                        if not math.isnan(b.sync_time)
                        else "-"
                    ),
                    b.sync_flows or "-",
                ]
                for i, b in enumerate(bursts)
            ]
            lines.append("")
            lines.append(
                format_table(
                    [
                        "burst",
                        "start s",
                        "end s",
                        "peak pkts",
                        "drops",
                        "sync",
                        "sync t",
                        "sync flows",
                    ],
                    rows,
                    title="Burst episodes",
                )
            )
            for i, b in enumerate(bursts):
                sketch_rank = {
                    s.flow_id: rank
                    for rank, s in enumerate(b.sketch_top, start=1)
                }
                rows = [
                    [
                        rank,
                        s.flow_id,
                        s.packets,
                        s.bytes,
                        round(100.0 * s.share, 1),
                        sketch_rank.get(s.flow_id, "-"),
                    ]
                    for rank, s in enumerate(b.exact_top[:top], start=1)
                ]
                lines.append("")
                lines.append(
                    format_table(
                        [
                            "rank",
                            "flow",
                            "pkts",
                            "bytes",
                            "share %",
                            "sketch rank",
                        ],
                        rows,
                        title=(
                            f"Burst {i} culprits "
                            f"(t={b.episode.start:.2f}..{b.episode.end:.2f}s)"
                        ),
                    )
                )
        syncs = self.sync_events
        if syncs:
            rows = [
                [
                    round(s.time, 3),
                    round(s.end, 3),
                    s.n_flows,
                    round(100.0 * s.fraction, 1),
                ]
                for s in syncs
            ]
            lines.append("")
            lines.append(
                format_table(
                    ["t s", "end s", "flows", "% of flows"],
                    rows,
                    title="Loss-synchronization events",
                )
            )
        return "\n".join(lines)
