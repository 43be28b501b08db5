"""Wall-clock profiling of the event engine.

An :class:`EngineProfiler` attached to a :class:`~repro.sim.engine.
Simulator` times every callback the event loop executes, attributing
the wall time to a *category* derived from the callback itself (class
and method name for bound methods, qualified name otherwise).  The
summary answers the questions that matter when sweeps scale: where does
the simulator spend its time, how many events per second does it
sustain, how deep does the calendar queue get, and how much faster than
real time does the model run.

Profiling costs two ``perf_counter`` calls per event, so it is opt-in;
with no profiler attached the engine's run loop carries no timing code
at all.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.tables import format_table


def callback_category(callback: Callable[..., Any]) -> str:
    """Human-readable category for one callback.

    Bound methods report ``ClassName.method``; plain functions their
    qualified name.  This is what groups "TCP timer pops" apart from
    "link transmissions" in the profile.
    """
    func = getattr(callback, "__func__", callback)
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return f"{type(owner).__name__}.{func.__name__}"
    return getattr(func, "__qualname__", repr(func))


@dataclass
class CategoryStat:
    """Aggregated wall time of one callback category."""

    category: str
    events: int = 0
    wall_time: float = 0.0

    @property
    def mean_us(self) -> float:
        """Mean wall time per event, microseconds."""
        return 1e6 * self.wall_time / self.events if self.events else 0.0


@dataclass
class EngineProfile:
    """The summary an :class:`EngineProfiler` renders after a run.

    Two wall-time totals are tracked: ``wall_time`` is the sum of the
    timed callback executions, while ``run_wall_time`` is the run
    loop's end-to-end wall clock.  Their difference is the *engine
    overhead* -- pop/dispatch/recycle work between callbacks, i.e. the
    scheduler's own cost.  ``max_heap_depth`` is the deepest pending-event
    count seen -- the depth of the simulator's calendar heap, cancelled
    entries included.
    """

    events_executed: int
    wall_time: float
    sim_time: float
    max_heap_depth: int
    categories: List[CategoryStat] = field(default_factory=list)
    run_wall_time: float = 0.0

    @property
    def events_per_sec(self) -> float:
        return self.events_executed / self.wall_time if self.wall_time > 0 else 0.0

    @property
    def loop_events_per_sec(self) -> float:
        """Events per second of end-to-end run-loop wall time."""
        return (
            self.events_executed / self.run_wall_time
            if self.run_wall_time > 0
            else 0.0
        )

    @property
    def overhead_time(self) -> float:
        """Run-loop wall time not spent inside callbacks (seconds)."""
        return max(self.run_wall_time - self.wall_time, 0.0)

    @property
    def overhead_events_per_sec(self) -> float:
        """Events per second of engine overhead: the scheduler's own
        throughput, with callback execution time factored out."""
        overhead = self.overhead_time
        return self.events_executed / overhead if overhead > 0 else 0.0

    @property
    def sim_wall_ratio(self) -> float:
        """Simulated seconds per wall-clock second (>1 = faster than
        real time)."""
        return self.sim_time / self.wall_time if self.wall_time > 0 else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "events_executed": self.events_executed,
            "wall_time": self.wall_time,
            "run_wall_time": self.run_wall_time,
            "overhead_time": self.overhead_time,
            "sim_time": self.sim_time,
            "events_per_sec": self.events_per_sec,
            "loop_events_per_sec": self.loop_events_per_sec,
            "overhead_events_per_sec": self.overhead_events_per_sec,
            "sim_wall_ratio": self.sim_wall_ratio,
            "max_heap_depth": self.max_heap_depth,
            "categories": [
                {
                    "category": stat.category,
                    "events": stat.events,
                    "wall_time": stat.wall_time,
                    "mean_us": stat.mean_us,
                }
                for stat in self.categories
            ],
        }

    def render_table(self) -> str:
        """The profile as an aligned text table (hottest first)."""
        rows: List[List[Any]] = []
        total = self.wall_time or 1.0
        for stat in self.categories:
            rows.append(
                [
                    stat.category,
                    stat.events,
                    round(stat.wall_time, 6),
                    round(100.0 * stat.wall_time / total, 2),
                    round(stat.mean_us, 3),
                ]
            )
        header = (
            f"Engine profile: {self.events_executed} events in "
            f"{self.wall_time:.3f}s wall "
            f"({self.events_per_sec:,.0f} ev/s, "
            f"sim/wall {self.sim_wall_ratio:.1f}x, "
            f"heap depth <= {self.max_heap_depth})"
        )
        if self.run_wall_time > 0:
            header += (
                f"\nEngine overhead: {self.overhead_time:.3f}s outside "
                f"callbacks ({self.overhead_events_per_sec:,.0f} ev/s "
                "scheduler throughput)"
            )
        return format_table(
            ["category", "events", "wall_s", "wall_%", "mean_us"],
            rows,
            title=header,
        )


class EngineProfiler:
    """Collects per-callback-category timings from the event loop.

    Attach with :meth:`~repro.sim.engine.Simulator.attach_profiler`; the
    engine then routes every executed event through :meth:`note_event`.
    One profiler can span several ``run()`` calls on the same simulator.
    """

    def __init__(self) -> None:
        self._stats: Dict[Any, CategoryStat] = {}
        self.events = 0
        self.wall_time = 0.0
        self.run_wall_time = 0.0
        self.max_heap_depth = 0
        self._sim_start: Optional[float] = None
        self._sim_end = 0.0
        self.clock = time.perf_counter

    # ------------------------------------------------------------------
    # Engine-facing interface
    # ------------------------------------------------------------------
    def begin_run(self, now: float) -> None:
        if self._sim_start is None:
            self._sim_start = now

    def end_run(self, now: float) -> None:
        self._sim_end = max(self._sim_end, now)

    def add_run_wall(self, seconds: float) -> None:
        """Account one run loop's end-to-end wall time (the engine
        calls this when a profiled ``run()`` returns)."""
        self.run_wall_time += seconds

    def note_event(
        self, callback: Callable[..., Any], elapsed: float, heap_depth: int
    ) -> None:
        """Account one executed event (engine hot path when attached)."""
        # Key on the underlying function: bound methods are fresh
        # objects on every schedule() call, their __func__ is stable.
        key = getattr(callback, "__func__", callback)
        stat = self._stats.get(key)
        if stat is None:
            stat = CategoryStat(callback_category(callback))
            self._stats[key] = stat
        stat.events += 1
        stat.wall_time += elapsed
        self.events += 1
        self.wall_time += elapsed
        if heap_depth > self.max_heap_depth:
            self.max_heap_depth = heap_depth

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def profile(self) -> EngineProfile:
        """Summarize everything recorded so far (hottest category first)."""
        merged: Dict[str, CategoryStat] = {}
        for stat in self._stats.values():
            into = merged.setdefault(stat.category, CategoryStat(stat.category))
            into.events += stat.events
            into.wall_time += stat.wall_time
        categories = sorted(
            merged.values(), key=lambda s: s.wall_time, reverse=True
        )
        sim_time = (
            self._sim_end - self._sim_start if self._sim_start is not None else 0.0
        )
        return EngineProfile(
            events_executed=self.events,
            wall_time=self.wall_time,
            sim_time=sim_time,
            max_heap_depth=self.max_heap_depth,
            categories=categories,
            run_wall_time=self.run_wall_time,
        )


def peak_rss_kb() -> float:
    """Peak resident-set size of this process in kilobytes.

    This is ``ru_maxrss``: the process's high-water mark so far, not the
    peak of whatever ran last.  Read at the end of a cell, it is that
    cell's own peak only if nothing larger ran earlier in the process --
    in a serial sweep or a pooled worker, a small cell after a large one
    reports the large one's peak.

    Returns NaN where the ``resource`` module is unavailable (Windows).
    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; both are
    normalized to kB.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - Windows
        return float("nan")
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return peak / 1024.0
    return float(peak)
