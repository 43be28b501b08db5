"""Structured progress telemetry for sweep runs.

:class:`RunLog` appends one JSON object per event to a log file
(JSONL), so a crashed or killed sweep leaves a complete record of what
finished, what failed, and what was still running.  :class:`Progress`
keeps the live completed/failed/cached/retried counters and renders the
one-line status the CLI prints.

Events (all carry ``t`` = wall-clock seconds and ``event``):

* ``sweep_start``    -- ``total`` cells, worker count, cache directory
  and executor ``pool`` (logs written while a submission-order
  ``schedule`` still existed also name the ``schedule`` here and a
  ``lane`` per ``task_done``; :func:`summarize_runlog` still reads both).
* ``task_start``     -- ``index``, ``digest``, ``label``, ``attempt``,
  the scenario ``backend`` (``packet``/``fluid``/``hybrid``), and
  (persistent
  pool) the ``worker`` id it was dispatched to.
* ``task_done``      -- ``index``, ``digest``, ``elapsed``, ``attempt``
  count, the scenario ``backend``, ``worker`` id, the flow ``engine``
  that actually ran the cell (``object``/``batch``; absent on fluid
  cells and in logs written before the default dispatch, when every
  cell was object),
  ``engine_fallback: true`` when that was the object engine answering
  a batch tie-guard trip, plus engine telemetry when available:
  ``events_executed``, ``sim_wall_ratio``, ``peak_rss_kb``.  The
  backend tag lets a later sweep's cost model learn separate
  wall-time alphas for packet vs fluid vs hybrid cells from this log,
  and the engine tag lets it skip rows timed on the other engine.
* ``task_retry``     -- ``index``, ``digest``, ``attempt``, ``error``,
  ``delay``.
* ``task_failed``    -- ``index``, ``digest``, ``error`` (retries
  exhausted).
* ``worker_spawn``   -- ``worker`` id (persistent pool).
* ``worker_respawn`` -- ``worker`` id of the replacement, ``reason``
  (``crash``/``timeout``), the cell ``index`` it was stuck on, and the
  ``replaced`` worker id.  Only the stuck worker is replaced.
* ``sweep_end``      -- final counters plus ``makespan`` (wall seconds
  start to end), total ``busy`` worker-seconds, and ``utilization``
  (busy / (makespan x workers)).

:func:`summarize_runlog` folds an event stream back into a makespan /
worker-utilization report (the ``repro-tcp sweeplog`` subcommand).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, TextIO


@dataclass
class Progress:
    """Live counters over one sweep."""

    total: int = 0
    completed: int = 0
    failed: int = 0
    cached: int = 0
    retried: int = 0
    respawned: int = 0

    @property
    def finished(self) -> int:
        """Cells with a final outcome (success, cache hit, or failure)."""
        return self.completed + self.failed + self.cached

    @property
    def done(self) -> bool:
        return self.finished >= self.total

    def render(self) -> str:
        """One status line, e.g. ``[ 12/40] ok=9 cached=3 failed=0``."""
        width = len(str(self.total))
        return (
            f"[{self.finished:{width}d}/{self.total}] "
            f"ok={self.completed} cached={self.cached} "
            f"failed={self.failed} retried={self.retried}"
        )


class RunLog:
    """JSONL event sink, optionally echoing progress to a stream.

    Args:
        path: JSONL file to append events to (None = no file).
        echo: stream for live one-line progress updates (e.g.
            ``sys.stderr``; None = silent).
    """

    def __init__(
        self,
        path: Optional[str] = None,
        echo: Optional[TextIO] = None,
    ) -> None:
        self.path = path
        self.echo = echo
        self.progress = Progress()
        self._handle: Optional[TextIO] = None
        self._sweep_t0: Optional[float] = None
        self._workers: int = 0
        self._busy: float = 0.0
        if path is not None:
            self._handle = open(path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    def emit(self, event: str, **data: Any) -> None:
        """Append one event record, flushing so kills lose nothing."""
        if self._handle is not None:
            record = {"event": event, "t": time.time()}
            record.update(data)
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()
        if self.echo is not None and event in (
            "task_done",
            "task_failed",
            "cache_hit",
            "sweep_end",
        ):
            self.echo.write(self.progress.render() + "\n")
            self.echo.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Event helpers: keep counter updates and event emission in one place.
    # ------------------------------------------------------------------
    def sweep_start(self, total: int, **data: Any) -> None:
        self.progress.total = total
        self._sweep_t0 = time.monotonic()
        self._workers = int(data.get("workers") or 0)
        self._busy = 0.0
        self.emit("sweep_start", total=total, **data)

    def task_start(
        self,
        index: int,
        digest: str,
        label: str,
        attempt: int,
        worker: Optional[int] = None,
        backend: str = "",
    ) -> None:
        extras: Dict[str, Any] = {}
        if worker is not None:
            extras["worker"] = worker
        if backend:
            extras["backend"] = backend
        self.emit(
            "task_start",
            index=index,
            digest=digest,
            label=label,
            attempt=attempt,
            **extras,
        )

    def cache_hit(self, index: int, digest: str) -> None:
        self.progress.cached += 1
        self.emit("cache_hit", index=index, digest=digest)

    def task_done(
        self,
        index: int,
        digest: str,
        elapsed: float,
        events_executed: Optional[int] = None,
        sim_wall_ratio: Optional[float] = None,
        peak_rss_kb: Optional[float] = None,
        attempt: int = 0,
        worker: Optional[int] = None,
        backend: str = "",
        forensic_bursts: Optional[int] = None,
        forensic_sync_linked: Optional[int] = None,
        forensic_burst_rate: Optional[float] = None,
        forensic_sync_linked_fraction: Optional[float] = None,
        engine: str = "",
        engine_fallback: bool = False,
    ) -> None:
        """Record one completed cell, with optional engine telemetry.

        ``attempt`` is how many failed attempts preceded this success,
        so retries stay auditable from the JSONL log.  ``backend`` tags
        the row with the solver that produced it
        (``packet``/``fluid``/``hybrid``)
        so cost models seeded from this log keep the wall-time regimes
        apart; ``engine`` is the flow engine the numbers came from and
        ``engine_fallback`` marks a cell the batch engine gave up on
        (see the module docstring).  The
        engine extras (events executed, simulated-seconds per wall
        second, peak RSS) come from the flight recorder's ``perf_*``
        metrics; None (or NaN) values are simply omitted from the
        record.  The ``forensic_*`` extras appear when the cell ran
        burst forensics, so ``sweeplog``/``--follow`` can show
        burstiness columns as cells complete.
        """
        self.progress.completed += 1
        self._busy += max(elapsed, 0.0)
        extras: Dict[str, Any] = {}
        if events_executed is not None:
            extras["events_executed"] = events_executed
        if sim_wall_ratio is not None and sim_wall_ratio == sim_wall_ratio:
            extras["sim_wall_ratio"] = round(sim_wall_ratio, 3)
        if peak_rss_kb is not None and peak_rss_kb == peak_rss_kb:
            extras["peak_rss_kb"] = peak_rss_kb
        if worker is not None:
            extras["worker"] = worker
        if backend:
            extras["backend"] = backend
        if engine:
            extras["engine"] = engine
        if engine_fallback:
            extras["engine_fallback"] = True
        if forensic_bursts is not None:
            extras["forensic_bursts"] = forensic_bursts
        if forensic_sync_linked is not None:
            extras["forensic_sync_linked"] = forensic_sync_linked
        if (
            forensic_burst_rate is not None
            and forensic_burst_rate == forensic_burst_rate
        ):
            extras["forensic_burst_rate"] = round(forensic_burst_rate, 6)
        if (
            forensic_sync_linked_fraction is not None
            and forensic_sync_linked_fraction == forensic_sync_linked_fraction
        ):
            extras["forensic_sync_linked_fraction"] = round(
                forensic_sync_linked_fraction, 6
            )
        self.emit(
            "task_done",
            index=index,
            digest=digest,
            elapsed=elapsed,
            attempt=attempt,
            **extras,
        )

    def task_retry(
        self, index: int, digest: str, attempt: int, error: str, delay: float
    ) -> None:
        self.progress.retried += 1
        self.emit(
            "task_retry",
            index=index,
            digest=digest,
            attempt=attempt,
            error=error,
            delay=delay,
        )

    def task_failed(self, index: int, digest: str, error: str) -> None:
        self.progress.failed += 1
        self.emit("task_failed", index=index, digest=digest, error=error)

    def worker_spawn(self, worker: int) -> None:
        self.emit("worker_spawn", worker=worker)

    def worker_respawn(
        self,
        worker: int,
        reason: str,
        index: Optional[int] = None,
        replaced: Optional[int] = None,
    ) -> None:
        """One stuck/dead worker was killed and replaced (pool mode)."""
        self.progress.respawned += 1
        self.emit(
            "worker_respawn",
            worker=worker,
            reason=reason,
            index=index,
            replaced=replaced,
        )

    def sweep_end(self) -> None:
        progress = self.progress
        extras: Dict[str, Any] = {}
        if self._sweep_t0 is not None:
            makespan = time.monotonic() - self._sweep_t0
            extras["makespan"] = round(makespan, 6)
            extras["busy"] = round(self._busy, 6)
            if makespan > 0 and self._workers > 0:
                extras["utilization"] = round(
                    self._busy / (makespan * self._workers), 4
                )
        self.emit(
            "sweep_end",
            total=progress.total,
            completed=progress.completed,
            cached=progress.cached,
            failed=progress.failed,
            retried=progress.retried,
            respawned=progress.respawned,
            **extras,
        )


def read_runlog(path: str) -> List[Dict[str, Any]]:
    """Parse a JSONL run log back into event dicts (skipping torn lines)."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError:
                continue  # a torn final line from a killed run
    return events


def summarize_runlog(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold an event stream into a sweep execution summary.

    Returns totals, makespan, worker utilization, the ``schedule`` and
    ``lanes`` of a log old enough to name them, per-worker busy time /
    cell counts, a per-backend breakdown
    (cells, busy/mean/max seconds, failures -- failures attribute via
    the backend tag their ``task_start`` carried), the same per flow
    engine (with tie-guard fallbacks in place of failures), respawns, and the
    slowest cells — everything needed to audit a sweep's makespan from
    its JSONL log alone (``repro-tcp sweeplog``).  A killed run (no
    ``sweep_end``) still summarizes from the per-task events; makespan
    then falls back to the span of observed timestamps.
    """
    summary: Dict[str, Any] = {
        "sweeps": 0,
        "total": 0,
        "completed": 0,
        "cached": 0,
        "failed": 0,
        "retried": 0,
        "respawned": 0,
        "workers": 0,
        "pool": "",
        "schedule": "",
        "makespan": 0.0,
        "busy": 0.0,
        "utilization": float("nan"),
        "per_worker": {},
        "lanes": {},
        "backends": {},
        "engines": {},
        "forensics": {
            "cells": 0,
            "bursts": 0,
            "sync_linked": 0,
            "burst_rate_mean": float("nan"),
            "sync_linked_fraction_mean": float("nan"),
        },
        "slowest": [],
    }
    per_worker: Dict[Any, Dict[str, float]] = {}
    done_cells: List[Dict[str, Any]] = []
    rate_sum: List[float] = []
    linked_sum: List[float] = []
    # index -> backend, learned from task_start/task_done tags so
    # task_failed events (which carry no backend) still attribute.
    cell_backend: Dict[Any, str] = {}
    t_first: Optional[float] = None
    t_last: Optional[float] = None
    saw_end = False

    def backend_stats(backend: str) -> Dict[str, Any]:
        return summary["backends"].setdefault(
            backend, {"cells": 0, "busy": 0.0, "max": 0.0, "failed": 0}
        )

    def note_done(stats: Dict[str, Any], elapsed: float) -> None:
        stats["cells"] += 1
        stats["busy"] += elapsed
        stats["max"] = max(stats["max"], elapsed)

    for event in events:
        kind = event.get("event")
        t = event.get("t")
        if isinstance(t, (int, float)):
            t_first = t if t_first is None else min(t_first, t)
            t_last = t if t_last is None else max(t_last, t)
        if kind in ("task_start", "task_done") and event.get("backend"):
            cell_backend[event.get("index")] = event["backend"]
        if kind == "sweep_start":
            summary["sweeps"] += 1
            summary["total"] += int(event.get("total") or 0)
            summary["workers"] = max(
                summary["workers"], int(event.get("workers") or 0)
            )
            summary["pool"] = event.get("pool", summary["pool"]) or ""
            summary["schedule"] = (
                event.get("schedule", summary["schedule"]) or ""
            )
        elif kind == "task_done":
            elapsed = float(event.get("elapsed") or 0.0)
            summary["completed"] += 1
            summary["busy"] += elapsed
            lane = event.get("lane", "")
            if lane:
                summary["lanes"][lane] = summary["lanes"].get(lane, 0) + 1
            backend = event.get("backend", "")
            if backend:
                note_done(backend_stats(backend), elapsed)
            engine = event.get("engine", "")
            if engine:
                stats = summary["engines"].setdefault(
                    engine, {"cells": 0, "busy": 0.0, "max": 0.0, "fallbacks": 0}
                )
                note_done(stats, elapsed)
                stats["fallbacks"] += bool(event.get("engine_fallback"))
            worker = event.get("worker")
            stats = per_worker.setdefault(
                worker, {"cells": 0, "busy": 0.0}
            )
            stats["cells"] += 1
            stats["busy"] += elapsed
            if "forensic_bursts" in event:
                forensics = summary["forensics"]
                forensics["cells"] += 1
                forensics["bursts"] += int(event.get("forensic_bursts") or 0)
                forensics["sync_linked"] += int(
                    event.get("forensic_sync_linked") or 0
                )
                rate_sum.append(float(event.get("forensic_burst_rate") or 0.0))
                linked = event.get("forensic_sync_linked_fraction")
                if linked is not None:
                    linked_sum.append(float(linked))
            done_cells.append(event)
        elif kind == "cache_hit":
            summary["cached"] += 1
        elif kind == "task_failed":
            summary["failed"] += 1
            backend = cell_backend.get(event.get("index"), "")
            if backend:
                backend_stats(backend)["failed"] += 1
        elif kind == "task_retry":
            summary["retried"] += 1
        elif kind == "worker_respawn":
            summary["respawned"] += 1
        elif kind == "sweep_end":
            saw_end = True
            summary["makespan"] += float(event.get("makespan") or 0.0)
    if not saw_end and t_first is not None and t_last is not None:
        summary["makespan"] = t_last - t_first
    if summary["makespan"] > 0 and summary["workers"] > 0:
        summary["utilization"] = summary["busy"] / (
            summary["makespan"] * summary["workers"]
        )
    for stats in [*summary["backends"].values(), *summary["engines"].values()]:
        stats["mean"] = stats["busy"] / stats["cells"] if stats["cells"] else 0.0
    if rate_sum:
        summary["forensics"]["burst_rate_mean"] = sum(rate_sum) / len(rate_sum)
    if linked_sum:
        summary["forensics"]["sync_linked_fraction_mean"] = sum(
            linked_sum
        ) / len(linked_sum)
    summary["per_worker"] = per_worker
    summary["slowest"] = sorted(
        done_cells, key=lambda e: float(e.get("elapsed") or 0.0), reverse=True
    )[:5]
    return summary


def _schedule_token(summary: Dict[str, Any]) -> str:
    """``schedule=... `` for a log that names one (written when there
    were two orders to tell apart), nothing for a log that does not."""
    return f"schedule={summary['schedule']} " if summary["schedule"] else ""


def render_runlog_summary(events: List[Dict[str, Any]]) -> str:
    """A ``repro-tcp profile``-style text report of one run log."""
    from repro.analysis.tables import format_table

    summary = summarize_runlog(events)
    lines: List[str] = []
    pool = summary["pool"] or "?"
    lines.append(
        f"Sweep execution: pool={pool} {_schedule_token(summary)}"
        f"workers={summary['workers']} "
        f"({summary['sweeps']} sweep(s), {summary['total']} cells)"
    )
    utilization = summary["utilization"]
    utilization_text = (
        f"{100.0 * utilization:.1f}%"
        if utilization == utilization
        else "n/a"
    )
    lines.append(
        f"makespan {summary['makespan']:.3f}s, busy "
        f"{summary['busy']:.3f} worker-seconds, utilization "
        f"{utilization_text}"
    )
    lines.append(
        f"completed={summary['completed']} cached={summary['cached']} "
        f"failed={summary['failed']} retried={summary['retried']} "
        f"respawned={summary['respawned']}"
    )
    forensics = summary.get("forensics") or {}
    if forensics.get("cells"):
        rate = forensics["burst_rate_mean"]
        linked = forensics["sync_linked_fraction_mean"]
        lines.append(
            f"forensics: {forensics['bursts']} burst(s), "
            f"{forensics['sync_linked']} sync-linked across "
            f"{forensics['cells']} cell(s)"
            + (f", mean burst rate {rate:.3f}/s" if rate == rate else "")
            + (f", mean sync-linked {100.0 * linked:.0f}%" if linked == linked else "")
        )
    for key, first, last, title in (
        ("backends", "backend", "failed", "Per-backend breakdown"),
        ("engines", "engine", "fallbacks", "Per-engine breakdown"),
    ):
        if not summary[key]:
            continue
        rows = [
            [
                name,
                int(stats["cells"]),
                round(stats["busy"], 3),
                round(stats.get("mean", 0.0), 3),
                round(stats.get("max", 0.0), 3),
                int(stats.get(last, 0)),
            ]
            for name, stats in sorted(summary[key].items())
        ]
        lines.append("")
        lines.append(
            format_table(
                [first, "cells", "busy s", "mean s", "max s", last],
                rows,
                title=title,
            )
        )
    if summary["per_worker"]:
        rows = [
            [
                "-" if worker is None else worker,
                int(stats["cells"]),
                round(stats["busy"], 3),
            ]
            for worker, stats in sorted(
                summary["per_worker"].items(),
                key=lambda item: (item[0] is None, item[0]),
            )
        ]
        lines.append("")
        lines.append(
            format_table(
                ["worker", "cells", "busy s"], rows, title="Per-worker load"
            )
        )
    if summary["slowest"]:
        # Burstiness columns appear only when some cell carried
        # forensic fields, so non-forensics logs render exactly as
        # before.
        with_forensics = any(
            "forensic_bursts" in event for event in summary["slowest"]
        )
        headers = ["cell", "digest", "backend", "elapsed s", "attempt"]
        if with_forensics:
            headers += ["bursts", "sync-linked"]
        rows = []
        for event in summary["slowest"]:
            row = [
                event.get("index", "-"),
                str(event.get("digest", ""))[:12],
                event.get("backend", "") or "-",
                round(float(event.get("elapsed") or 0.0), 3),
                event.get("attempt", 0),
            ]
            if with_forensics:
                if "forensic_bursts" in event:
                    row += [
                        event.get("forensic_bursts", 0),
                        event.get("forensic_sync_linked", 0),
                    ]
                else:
                    row += ["-", "-"]
            rows.append(row)
        lines.append("")
        lines.append(
            format_table(headers, rows, title="Slowest cells")
        )
    return "\n".join(lines)


class RunLogTail:
    """Incremental JSONL reader for a file another process is writing.

    Keeps a byte offset and a partial-line buffer between polls, so a
    record written in two chunks is parsed once complete rather than
    dropped.  A missing file (the sweep has not started yet) reads as
    no new events.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.offset = 0
        self._partial = ""

    def poll(self) -> List[Dict[str, Any]]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                handle.seek(self.offset)
                chunk = handle.read()
                self.offset = handle.tell()
        except OSError:
            return []
        if not chunk:
            return []
        pieces = (self._partial + chunk).split("\n")
        self._partial = pieces.pop()
        events: List[Dict[str, Any]] = []
        for line in pieces:
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except ValueError:
                continue  # torn or corrupt line
        return events


def _follow_eta(summary: Dict[str, Any]) -> float:
    """Cost-model ETA: remaining cells at the observed mean cell cost,
    divided across the sweep's workers (cache hits count as done)."""
    finished = summary["completed"] + summary["cached"] + summary["failed"]
    remaining = max(summary["total"] - finished, 0)
    if not remaining:
        return 0.0
    if not summary["completed"]:
        return float("nan")
    mean = summary["busy"] / summary["completed"]
    return remaining * mean / max(summary["workers"], 1)


def render_follow_snapshot(summary: Dict[str, Any]) -> str:
    """The multi-line live-dashboard frame for ``sweeplog --follow``."""
    finished = summary["completed"] + summary["cached"] + summary["failed"]
    utilization = summary["utilization"]
    eta = _follow_eta(summary)
    lines = [
        f"sweep {finished}/{summary['total']} cells "
        f"(ok={summary['completed']} cached={summary['cached']} "
        f"failed={summary['failed']} retried={summary['retried']})",
        f"pool={summary['pool'] or '?'} {_schedule_token(summary)}"
        f"workers={summary['workers']} "
        + (
            f"utilization={100.0 * utilization:.1f}% "
            if utilization == utilization
            else "utilization=n/a "
        )
        + (f"ETA={eta:.1f}s" if eta == eta else "ETA=n/a"),
    ]
    if summary["backends"]:
        parts = [
            f"{backend}: {int(stats['cells'])} cells "
            f"(mean {stats.get('mean', 0.0):.2f}s, max {stats['max']:.2f}s)"
            for backend, stats in sorted(summary["backends"].items())
        ]
        lines.append("backends: " + "; ".join(parts))
    if summary["per_worker"]:
        parts = [
            f"{'-' if worker is None else worker}:{int(stats['cells'])}"
            for worker, stats in sorted(
                summary["per_worker"].items(),
                key=lambda item: (item[0] is None, item[0]),
            )
        ]
        lines.append("per-worker cells: " + " ".join(parts))
    forensics = summary.get("forensics") or {}
    if forensics.get("cells"):
        rate = forensics["burst_rate_mean"]
        linked = forensics["sync_linked_fraction_mean"]
        lines.append(
            f"forensics: {forensics['bursts']} burst(s), "
            f"{forensics['sync_linked']} sync-linked across "
            f"{forensics['cells']} cell(s)"
            + (f", mean rate {rate:.3f}/s" if rate == rate else "")
            + (f", linked {100.0 * linked:.0f}%" if linked == linked else "")
        )
    return "\n".join(lines)


def _render_follow_line(summary: Dict[str, Any]) -> str:
    """The one-line (non-TTY) form of the dashboard frame."""
    finished = summary["completed"] + summary["cached"] + summary["failed"]
    utilization = summary["utilization"]
    eta = _follow_eta(summary)
    text = (
        f"[{finished}/{summary['total']}] ok={summary['completed']} "
        f"cached={summary['cached']} failed={summary['failed']} "
        f"workers={summary['workers']} "
        + (
            f"util={100.0 * utilization:.0f}% "
            if utilization == utilization
            else "util=n/a "
        )
        + (f"eta={eta:.0f}s" if eta == eta else "eta=n/a")
    )
    forensics = summary.get("forensics") or {}
    if forensics.get("cells"):
        text += (
            f" bursts={forensics['bursts']}"
            f" sync-linked={forensics['sync_linked']}"
        )
    return text


def follow_runlog(
    path: str,
    stream: Optional[TextIO] = None,
    interval: float = 1.0,
    max_updates: Optional[int] = None,
    tty: Optional[bool] = None,
    sleep=time.sleep,
) -> int:
    """Tail a JSONL run log and render a live sweep dashboard.

    Stdlib-only: on a TTY each update repaints a multi-line frame
    (ANSI home+clear); on anything else (CI logs, pipes) it falls back
    to one status line per update.  Stops when the log's ``sweep_end``
    arrives (rendering the full :func:`render_runlog_summary` report)
    or after ``max_updates`` frames (so smokes terminate on logs with
    no end event).  Returns the number of frames rendered.

    Args:
        path: run-log path; may not exist yet (renders a waiting frame).
        stream: output stream (default stdout).
        interval: seconds between polls.
        max_updates: stop after this many frames (None = until end).
        tty: force TTY/non-TTY rendering (None = ask the stream).
        sleep: injection point for tests.
    """
    out = stream if stream is not None else sys.stdout
    is_tty = (
        tty
        if tty is not None
        else bool(getattr(out, "isatty", lambda: False)())
    )
    clear = "\x1b[H\x1b[2J"
    tail = RunLogTail(path)
    events: List[Dict[str, Any]] = []
    updates = 0
    while True:
        new = tail.poll()
        events.extend(new)
        updates += 1
        if any(e.get("event") == "sweep_end" for e in new):
            body = render_runlog_summary(events)
            if is_tty:
                out.write(clear)
            out.write(body + "\n")
            out.flush()
            return updates
        if new or updates == 1:
            summary = summarize_runlog(events)
            if is_tty:
                out.write(clear + render_follow_snapshot(summary) + "\n")
            else:
                out.write(_render_follow_line(summary) + "\n")
            out.flush()
        if max_updates is not None and updates >= max_updates:
            return updates
        sleep(interval)


def stderr_runlog(path: Optional[str] = None, progress: bool = False) -> RunLog:
    """A RunLog wired to ``sys.stderr`` when live progress is wanted."""
    return RunLog(path=path, echo=sys.stderr if progress else None)
