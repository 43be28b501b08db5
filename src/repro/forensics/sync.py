"""Loss-synchronization detection and burst linkage.

The paper's mechanism for TCP-induced burstiness: a gateway overflow
makes *many* flows halve cwnd at nearly the same instant, their windows
then regrow in lockstep, and the next overload arrives as one
synchronized wave.  :class:`LossSyncDetector` finds those instants --
any one-RTT span in which at least ``max(2, ceil(fraction * n_flows))``
distinct flows cut their window -- and commits each once no later cut
can change it; :func:`link_bursts` ties each burst episode to the sync
event that preceded it (the wave that built the burst) or fired inside
it (the cut the burst itself forced).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.forensics.bursts import BurstEpisode


@dataclass(frozen=True)
class SyncEvent:
    """One cluster of near-simultaneous cwnd cuts."""

    time: float  # first cut in the cluster
    end: float  # last cut
    flows: Tuple[int, ...]  # distinct flows that cut, sorted
    fraction: float  # len(flows) / population

    @property
    def n_flows(self) -> int:
        return len(self.flows)

    def as_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "end": self.end,
            "n_flows": self.n_flows,
            "fraction": self.fraction,
        }


class LossSyncDetector:
    """Buffers per-flow cwnd cuts and commits each cluster once final.

    A cut *qualifies* when some window-wide span containing it holds
    cuts from at least ``min_flows`` distinct flows; maximal runs of
    qualifying cuts separated by at most one window become one
    :class:`SyncEvent` each (overlapping qualifying spans merge).

    Coverage of a cut at time ``t`` depends only on cuts within one
    window of ``t`` (qualifying spans are window-wide), so it is final
    once ``safe > t + window``; a closed cluster whose last member is at
    ``t_last`` could still be extended by a covered cut in
    ``(t_last, t_last + window]``, whose own coverage is final at
    ``t_last + 2*window`` -- so a cluster commits once
    ``safe > t_last + 2*window``.  Committed clusters' cuts and
    established-uncovered cuts older than ``safe - 2*window`` leave the
    buffer: removing them cannot flip any remaining cut's coverage
    (covered cuts always leave with their cluster; losing neighbors only
    keeps uncovered cuts uncovered), so re-running the clustering over
    the shrinking buffer commits exactly the clusters one pass over
    every cut would find (checked against that one pass in
    tests/test_forensics_stream.py).

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
        self.min_flows = max(2, math.ceil(fraction * n_flows))
        self._buffer: List[Tuple[float, int]] = []

    def on_loss(self, flow_id: int, time: float) -> None:
        """Record one flow's multiplicative window cut."""
        self._buffer.append((time, flow_id))

    @property
    def min_buffered_time(self) -> float:
        """Earliest undecided cut still buffered (inf when none).

        Any sync event not yet committed must start at or after this
        time, which is what lets the stream prove a burst's linkage can
        no longer change.
        """
        return min(self._buffer, default=(math.inf, 0))[0]

    def commit(self, safe: float) -> List[SyncEvent]:
        """Commit every cluster final before ``safe`` (inf commits all)."""
        self._buffer.sort()
        if not self._buffer:
            return []
        window = self.window
        times = [t for t, _ in self._buffer]
        flows = [f for _, f in self._buffer]
        covered, clusters = _cover_and_cluster(
            times, flows, window, self.min_flows
        )
        committed: List[SyncEvent] = []
        remove = set()
        for cluster in clusters:
            if safe > times[cluster[-1]] + 2.0 * window:
                cluster_flows = tuple(sorted({flows[idx] for idx in cluster}))
                n_flows = self.n_flows
                committed.append(
                    SyncEvent(
                        time=times[cluster[0]],
                        end=times[cluster[-1]],
                        flows=cluster_flows,
                        fraction=len(cluster_flows) / n_flows if n_flows else 0.0,
                    )
                )
                remove.update(cluster)
        for idx in range(len(times)):
            if not covered[idx] and safe > times[idx] + 2.0 * window:
                remove.add(idx)
        if remove:
            self._buffer = [
                cut for idx, cut in enumerate(self._buffer) if idx not in remove
            ]
        return committed


def _cover_and_cluster(
    times: List[float],
    flows: List[int],
    window: float,
    min_flows: int,
) -> Tuple[List[bool], List[List[int]]]:
    """The clustering core over sorted cut lists.

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


def link_bursts(
    episodes: List[BurstEpisode],
    syncs: List[SyncEvent],
    lookback: float,
    horizon: float,
) -> List[Tuple[str, Optional[SyncEvent]]]:
    """Match each burst episode to its loss-sync event, if any.

    Returns one ``(relation, sync)`` pair per episode:

    * ``("preceding", sync)`` -- the latest sync whose cuts finished at
      most ``lookback`` seconds before the burst opened (the lockstep
      regrowth wave that built this burst);
    * ``("triggered", sync)`` -- otherwise, the earliest sync starting
      inside ``[start, end + horizon]`` (the cuts this burst's own
      overflow forced; horizon covers detection lag -- dupacks need an
      RTT, timeouts an RTO -- after the queue has already drained);
    * ``("", None)`` -- no sync near the episode at all.
    """
    links: List[Tuple[str, Optional[SyncEvent]]] = []
    for episode in episodes:
        preceding = None
        for sync in syncs:
            if sync.time <= episode.start and (
                episode.start - sync.end
            ) <= lookback:
                if preceding is None or sync.time > preceding.time:
                    preceding = sync
        if preceding is not None:
            links.append(("preceding", preceding))
            continue
        triggered = None
        for sync in syncs:
            if episode.start < sync.time <= episode.end + horizon:
                triggered = sync
                break
        if triggered is not None:
            links.append(("triggered", triggered))
        else:
            links.append(("", None))
    return links
