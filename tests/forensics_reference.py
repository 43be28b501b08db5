"""Reference form of the burst-forensics report: the offline pipeline.

Before every forensics run went through ``ForensicsStream``, a run with
no stream attached built its report at the end, in one pass:
``LossSyncDetector.finalize`` clustered every recorded cwnd cut at once
(``_cover_and_cluster``), ``build_attributions`` ranked each episode's
culprits and linked it to a sync event, and ``ForensicsReport`` held the
lot.  ``offline_stream_records`` / ``offline_stream_lines`` serialised
such a report as the record sequence a streamed run must write: the
``params`` header, then every window, sync and burst record sorted by
emit key.  All of it is moved here verbatim (the probe's offline branch
of ``finalize`` became :func:`offline_finalize`, with the cuts passed
in).  It is the oracle ``tests/test_forensics_stream.py`` holds the
production fold to, record for record and report for report.

The pieces the two pipelines always shared -- ``BurstAttribution``,
``SyncEvent``, ``link_bursts`` and the window accountants -- are
imported, not copied.

A change that moves a record or a report field on purpose has to edit
this file, and say so; a change that claims the same output must not.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.experiments.scenario import run_scenario
from repro.forensics.bursts import BurstEpisode
from repro.forensics.probe import LOSS_STATES, ForensicsParams, ForensicsProbe
from repro.forensics.report import BurstAttribution
from repro.forensics.sync import SyncEvent, link_bursts
from repro.forensics.windows import (
    SketchWindowAccountant,
    WindowAccountant,
    precision_at_k,
    ranked_shares,
)
from repro.obs.series import TimeSeries


# ----------------------------------------------------------------------
# Batch loss-sync clustering
# ----------------------------------------------------------------------
class LossSyncDetector:
    """Collects per-flow cwnd-cut events; clusters them on finalize.

    Args:
        n_flows: population size the quorum fraction applies to.
        window: the "within one RTT" span, seconds.
        fraction: quorum as a fraction of ``n_flows``; the absolute
            quorum is ``max(2, ceil(fraction * n_flows))`` (one flow
            halving alone is never synchronization).
    """

    def __init__(self, n_flows: int, window: float, fraction: float) -> None:
        if window <= 0:
            raise ValueError("sync window must be positive")
        if not 0 < fraction <= 1:
            raise ValueError("sync fraction must lie in (0, 1]")
        self.n_flows = n_flows
        self.window = window
        self.fraction = fraction
        self.min_flows = max(2, math.ceil(fraction * n_flows))
        self._events: List[Tuple[float, int]] = []

    @property
    def n_events(self) -> int:
        return len(self._events)

    def on_loss(self, flow_id: int, time: float) -> None:
        """Record one flow's multiplicative window cut."""
        self._events.append((time, flow_id))

    def finalize(self) -> List[SyncEvent]:
        """Cluster the recorded cuts into synchronization events.

        A cut *qualifies* when some window-wide span containing it holds
        cuts from at least ``min_flows`` distinct flows; maximal runs of
        qualifying cuts separated by at most one window become one
        :class:`SyncEvent` each (overlapping qualifying spans merge).
        """
        events = sorted(self._events)
        if not events:
            return []
        times = [e[0] for e in events]
        flows = [e[1] for e in events]
        _, clusters = _cover_and_cluster(times, flows, self.window, self.min_flows)
        return [
            _cluster_event(times, flows, cluster, self.n_flows)
            for cluster in clusters
        ]


def _cover_and_cluster(
    times: List[float],
    flows: List[int],
    window: float,
    min_flows: int,
) -> Tuple[List[bool], List[List[int]]]:
    """The batch clustering core over sorted cut lists.

    Returns per-event coverage flags and the clusters as index lists:
    an event is covered when some window-wide span containing it holds
    cuts from at least ``min_flows`` distinct flows, and maximal runs
    of covered events separated by at most one window form one cluster.
    """
    n = len(times)
    covered = [False] * n
    flow_count: Dict[int, int] = {}
    distinct = 0
    j = -1
    marked_until = -1
    for i in range(n):
        while j + 1 < n and times[j + 1] - times[i] <= window:
            j += 1
            flow = flows[j]
            flow_count[flow] = flow_count.get(flow, 0) + 1
            if flow_count[flow] == 1:
                distinct += 1
        if distinct >= min_flows:
            for idx in range(max(i, marked_until + 1), j + 1):
                covered[idx] = True
            covered[i] = True
            marked_until = max(marked_until, j)
        flow = flows[i]
        flow_count[flow] -= 1
        if flow_count[flow] == 0:
            distinct -= 1

    clusters: List[List[int]] = []
    current: List[int] = []
    for idx in range(n):
        if not covered[idx]:
            continue
        if current and times[idx] - times[current[-1]] > window:
            clusters.append(current)
            current = [idx]
        else:
            current.append(idx)
    if current:
        clusters.append(current)
    return covered, clusters


def _cluster_event(
    times: List[float],
    flows: List[int],
    cluster: List[int],
    n_flows: int,
) -> SyncEvent:
    cluster_flows = tuple(sorted({flows[idx] for idx in cluster}))
    return SyncEvent(
        time=times[cluster[0]],
        end=times[cluster[-1]],
        flows=cluster_flows,
        fraction=len(cluster_flows) / n_flows if n_flows else 0.0,
    )


# ----------------------------------------------------------------------
# Attribution and the offline report
# ----------------------------------------------------------------------
def build_attributions(
    episodes: List[BurstEpisode],
    syncs: List[SyncEvent],
    exact: WindowAccountant,
    sketch: SketchWindowAccountant,
    params: "ForensicsParams",
) -> List[BurstAttribution]:
    """Rank culprits over each episode's window span and link syncs.

    The culprit tables rank over the whole span; precision is the mean
    *per-window* precision@k across the span's non-empty windows, since
    the per-window ranking is what the bounded-memory sketch actually
    computes (span merging accumulates eviction floors across windows
    and would test an artifact of aggregation, not the data structure).
    """
    links = link_bursts(
        episodes, syncs, params.sync_lookback, params.sync_horizon
    )
    attributions: List[BurstAttribution] = []
    for episode, (relation, sync) in zip(episodes, links):
        first = exact.window_index(episode.start)
        last = exact.window_index(episode.end)
        exact_counts = exact.span_counts(first, last)
        exact_all = ranked_shares(exact_counts)
        sketch_top = ranked_shares(
            sketch.span_counts(first, last), params.top_k
        )
        window_precisions = [
            precision_at_k(
                ranked_shares(exact.window_counts(index)),
                sketch.top_k(index, params.top_k),
                params.top_k,
            )
            for index in range(first, last + 1)
            if exact.window_counts(index)
        ]
        attributions.append(
            BurstAttribution(
                episode=episode,
                windows=(first, last),
                exact_top=exact_all[: params.top_k],
                sketch_top=sketch_top,
                precision=_mean(window_precisions),
                sync_relation=relation,
                sync_time=sync.time if sync is not None else float("nan"),
                sync_flows=sync.n_flows if sync is not None else 0,
            )
        )
    return attributions


def _mean(values: List[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return sum(finite) / len(finite) if finite else float("nan")


@dataclass
class ForensicsReport:
    """Everything one run's burst forensics concluded."""

    params: "ForensicsParams"
    n_flows: int
    duration: float
    bursts: List[BurstAttribution]
    sync_events: List[SyncEvent]
    exact: WindowAccountant
    sketch: SketchWindowAccountant

    # ------------------------------------------------------------------
    # Summary scalars (the forensic_* fields of ScenarioMetrics)
    # ------------------------------------------------------------------
    @property
    def n_bursts(self) -> int:
        return len(self.bursts)

    @property
    def n_sync_events(self) -> int:
        return len(self.sync_events)

    @property
    def n_sync_linked(self) -> int:
        return sum(1 for b in self.bursts if b.sync_linked)

    @property
    def precision(self) -> float:
        """Mean per-burst precision@k of the sketch vs the exact top-k."""
        return _mean([b.precision for b in self.bursts])

    @property
    def burst_time_fraction(self) -> float:
        """Fraction of the run spent inside a burst episode."""
        if self.duration <= 0:
            return float("nan")
        return (
            sum(b.episode.duration for b in self.bursts) / self.duration
        )

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
        return _mean([b.episode.duration for b in self.bursts])

    @property
    def burst_drops(self) -> int:
        """Gateway drops charged to burst episodes."""
        return sum(b.episode.drops for b in self.bursts)

    @property
    def sync_linked_fraction(self) -> float:
        """Fraction of bursts linked to a loss-sync event (NaN if none)."""
        if not self.bursts:
            return float("nan")
        return self.n_sync_linked / self.n_bursts

    @property
    def top_flow(self) -> int:
        """The single heaviest contributor across all burst windows."""
        totals = self._burst_totals()
        if not totals:
            return -1
        return ranked_shares(totals, 1)[0].flow_id

    @property
    def top_flow_share(self) -> float:
        totals = self._burst_totals()
        if not totals:
            return float("nan")
        return ranked_shares(totals, 1)[0].share

    def _burst_totals(self) -> Dict[int, List[int]]:
        merged: Dict[int, List[int]] = {}
        for burst in self.bursts:
            for flow, entry in self.exact.span_counts(*burst.windows).items():
                slot = merged.setdefault(flow, [0, 0])
                slot[0] += entry[0]
                slot[1] += entry[1]
        return merged

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Stable payload for JSON export and the golden test."""
        return {
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
            "bursts": [b.as_dict() for b in self.bursts],
            "sync_events": [s.as_dict() for s in self.sync_events],
        }

    def to_series(self) -> List[Tuple[str, "TimeSeries"]]:
        """``(name, series)`` pairs for :meth:`ObsBundle.export`."""
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
        for b in self.bursts:
            e = b.episode
            bursts.append(
                e.start,
                e.end,
                e.duration,
                e.peak,
                e.peak_time,
                e.drops,
                b.top_flow,
                b.top_share,
                b.precision,
                b.sync_relation,
                b.sync_time,
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
        k = self.params.top_k
        for index in self.exact.windows():
            start = self.exact.window_start(index)
            for source, shares in (
                ("exact", self.exact.top_k(index, k)),
                ("sketch", self.sketch.top_k(index, k)),
            ):
                for rank, share in enumerate(shares, start=1):
                    attribution.append(
                        start,
                        index,
                        source,
                        rank,
                        share.flow_id,
                        share.packets,
                        share.bytes,
                        share.share,
                    )
        syncs = TimeSeries(
            "forensic_sync", columns=("end", "n_flows", "fraction")
        )
        for s in self.sync_events:
            syncs.append(s.time, s.end, s.n_flows, s.fraction)
        return [
            ("forensic_bursts", bursts),
            ("forensic_attribution", attribution),
            ("forensic_sync", syncs),
        ]


def offline_finalize(
    probe: ForensicsProbe, cuts: List[Tuple[int, float]], end_time: float
) -> ForensicsReport:
    """``ForensicsProbe.finalize``'s offline branch: close the open
    episode, cluster every cut ``(flow_id, time)`` the probe was fed,
    attribute, and assemble the report over the probe's accountants."""
    episodes = list(probe.bursts.finalize(end_time))
    detector = LossSyncDetector(
        probe.n_flows, probe.params.sync_window, probe.params.sync_fraction
    )
    for flow_id, time in cuts:
        detector.on_loss(flow_id, time)
    syncs = detector.finalize()
    attributions = build_attributions(
        episodes, syncs, probe.exact, probe.sketch, probe.params
    )
    return ForensicsReport(
        params=probe.params,
        n_flows=probe.n_flows,
        duration=end_time,
        bursts=attributions,
        sync_events=syncs,
        exact=probe.exact,
        sketch=probe.sketch,
    )


# ----------------------------------------------------------------------
# The offline replay of the stream
# ----------------------------------------------------------------------
#: type_rank values: at equal emit_time, windows precede syncs precede
#: bursts (a burst record may reference a sync with the same key).
_RANK_WINDOW = 0
_RANK_SYNC = 1
_RANK_BURST = 2

EmitKey = Tuple[float, int, float]


def encode_record(record: Dict[str, Any]) -> str:
    """The one serialization both the stream and the offline replay use."""
    return json.dumps(record, sort_keys=True)


def _params_record(params: "ForensicsParams", n_flows: int) -> Dict[str, Any]:
    return {"type": "params", "n_flows": n_flows, **params.as_dict()}


def _window_record(
    index: int,
    exact: WindowAccountant,
    sketch: SketchWindowAccountant,
    params: "ForensicsParams",
) -> Dict[str, Any]:
    k = params.top_k
    exact_top = exact.top_k(index, k)
    sketch_top = sketch.top_k(index, k)
    return {
        "type": "window",
        "window": index,
        "start": exact.window_start(index),
        "end": exact.window_start(index + 1),
        "total_bytes": exact.window_total_bytes(index),
        "exact_top": [s.as_dict() for s in exact_top],
        "sketch_top": [s.as_dict() for s in sketch_top],
        "precision": precision_at_k(
            ranked_shares(exact.window_counts(index)), sketch_top, k
        ),
    }


def _sync_record(sync: SyncEvent) -> Dict[str, Any]:
    return {"type": "sync", **sync.as_dict()}


def _burst_record(attribution: BurstAttribution) -> Dict[str, Any]:
    return {"type": "burst", **attribution.as_dict()}


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


def offline_stream_records(report: ForensicsReport) -> List[Dict[str, Any]]:
    """The complete record list a streamed run would emit, rebuilt from
    an offline report: header first, then all records in emit-key
    order.  Any prefix of a live stream must match a prefix of this."""
    params = report.params
    keyed: List[Tuple[EmitKey, Dict[str, Any]]] = []
    for index in report.exact.windows():
        keyed.append(
            (
                _window_key(index, report.exact),
                _window_record(index, report.exact, report.sketch, params),
            )
        )
    for sync in report.sync_events:
        keyed.append((_sync_key(sync, params), _sync_record(sync)))
    for attribution in report.bursts:
        keyed.append(
            (
                _burst_key(attribution.episode, report.sync_events, params),
                _burst_record(attribution),
            )
        )
    keyed.sort(key=lambda item: item[0])
    return [_params_record(params, report.n_flows)] + [
        record for _, record in keyed
    ]


def offline_stream_lines(report: ForensicsReport) -> List[str]:
    return [encode_record(record) for record in offline_stream_records(report)]


# ----------------------------------------------------------------------
# Driving the reference beside a production run
# ----------------------------------------------------------------------
def run_with_reference(config, attach=None) -> Tuple[Any, Optional[ForensicsReport]]:
    """``run_scenario(config, attach)`` plus the reference report of the
    same run.

    The probe's cuts are tapped as it receives them, and the reference
    is built from the probe's episodes and accountants just before the
    probe's own ``finalize`` runs.  A run streamed to a file has already
    emitted and pruned that state by then, so it gets None.
    """
    cuts: Dict[ForensicsProbe, List[Tuple[int, float]]] = defaultdict(list)
    built: List[ForensicsReport] = []
    on_flow_state = ForensicsProbe.on_flow_state
    finalize = ForensicsProbe.finalize

    def tap(probe, flow_id, now, state):
        if state in LOSS_STATES:
            cuts[probe].append((flow_id, now))
        on_flow_state(probe, flow_id, now, state)

    def reference_first(probe, end_time):
        if not built and probe.stream is None:
            built.append(offline_finalize(probe, cuts[probe], end_time))
        return finalize(probe, end_time)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ForensicsProbe, "on_flow_state", tap)
        patch.setattr(ForensicsProbe, "finalize", reference_first)
        result = run_scenario(config, attach)
    return result, (built[0] if built else None)
