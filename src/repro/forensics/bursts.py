"""Burst segmentation of the bottleneck-queue occupancy series.

A burst episode opens when the instantaneous queue length reaches the
*enter* threshold and closes when it falls back to the *exit* threshold
(hysteresis: exit < enter, so chatter around a single level never
fragments one build-up into many episodes).  The detector is streaming
-- it consumes the same enqueue/dequeue hook stream the obs layer's
:class:`~repro.obs.probes.QueueProbe` samples from, holding O(1) state
plus the finished episode list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class BurstEpisode:
    """One contiguous queue build-up above the burst threshold."""

    start: float
    end: float = float("nan")
    peak: int = 0
    peak_time: float = float("nan")
    drops: int = 0
    drop_causes: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "start": self.start,
            "end": self.end,
            "peak": self.peak,
            "peak_time": self.peak_time,
            "drops": self.drops,
            "drop_causes": dict(sorted(self.drop_causes.items())),
        }


class BurstDetector:
    """Hysteresis state machine over instantaneous queue length.

    Args:
        enter: occupancy (packets) at or above which a burst opens.
        exit: occupancy at or below which an open burst closes;
            must be strictly below ``enter``.
    """

    def __init__(self, enter: int, exit: int) -> None:
        if enter < 1:
            raise ValueError("burst enter threshold must be >= 1 packet")
        if exit >= enter:
            raise ValueError("burst exit threshold must be below enter")
        if exit < 0:
            raise ValueError("burst exit threshold must be >= 0")
        self.enter = enter
        self.exit = exit
        self.episodes: List[BurstEpisode] = []
        self._open: Optional[BurstEpisode] = None

    @property
    def open_start(self) -> Optional[float]:
        """Start time of the episode currently open, if any."""
        return self._open.start if self._open is not None else None

    def drain_episodes(self) -> List[BurstEpisode]:
        """Hand over the closed episodes (streaming memory bound)."""
        episodes = self.episodes
        self.episodes = []
        return episodes

    def on_sample(self, now: float, length: int) -> None:
        """Feed one occupancy sample (call on every length change)."""
        episode = self._open
        if episode is None:
            if length >= self.enter:
                self._open = BurstEpisode(
                    start=now, peak=length, peak_time=now
                )
            return
        if length > episode.peak:
            episode.peak = length
            episode.peak_time = now
        if length <= self.exit:
            episode.end = now
            self.episodes.append(episode)
            self._open = None

    def on_drop(self, now: float, cause: str) -> None:
        """Charge a gateway drop to the open episode, if any."""
        episode = self._open
        if episode is None:
            return
        episode.drops += 1
        episode.drop_causes[cause] = episode.drop_causes.get(cause, 0) + 1

    def finalize(self, end_time: float) -> List[BurstEpisode]:
        """Close any episode still open at the end of the run."""
        episode = self._open
        if episode is not None:
            episode.end = end_time
            self.episodes.append(episode)
            self._open = None
        return self.episodes
