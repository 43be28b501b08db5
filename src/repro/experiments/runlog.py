"""Structured progress telemetry for sweep runs.

:class:`RunLog` appends one JSON object per event to a log file
(JSONL), so a crashed or killed sweep leaves a complete record of what
finished, what failed, and what was still running.  Every record it
emits it also feeds to its :class:`Progress`, the one fold over run-log
records: the live counters behind ``--progress``, the ``busy`` and
``utilization`` of ``sweep_end``, and -- fed from a file by
:func:`summarize_runlog` and :func:`follow_runlog` -- the ``sweeplog``
report and its live dashboard.

Events (all carry ``t`` = wall-clock seconds and ``event``):

* ``sweep_start``    -- ``total`` cells, ``workers`` (the pool the sweep
  runs on: 1 in process, 0 when every cell is a cache hit), cache
  directory and executor ``pool`` (logs written while a
  submission-order ``schedule`` still existed also name the
  ``schedule`` here and a ``lane`` per ``task_done``; the fold still
  reads both).
* ``task_start``     -- ``index``, ``digest``, ``label``, ``attempt``,
  the scenario ``backend`` (``packet``/``fluid``/``hybrid``), and
  (pool) the ``worker`` id it was dispatched to.
* ``cache_hit``      -- ``index``, ``digest``.
* ``task_done``      -- ``index``, ``digest``, ``elapsed``, ``attempt``
  count, ``backend``, ``worker`` id, ``engine_fallback: true`` when the
  object engine answered a batch tie-guard trip, and a key per row of
  :data:`TASK_DONE_FIELDS`.  ``engine`` is absent on fluid cells, and
  in logs written before the default dispatch, when every cell was
  object.
* ``task_retry``     -- ``index``, ``digest``, ``attempt``, ``error``;
  the cell is queued again at once (logs written while the runner
  still backed off also carry the ``delay`` it waited).
* ``task_failed``    -- ``index``, ``digest``, ``error`` (retries
  exhausted).
* ``worker_spawn``   -- ``worker`` id (pool).
* ``worker_respawn`` -- ``worker`` id of the replacement, ``reason``
  (``crash``/``timeout``), the cell ``index`` it was stuck on, and the
  ``replaced`` worker id.  Only the stuck worker is replaced.
* ``sweep_end``      -- final counters plus ``makespan`` (wall seconds
  start to end), the sweep's ``busy`` worker-seconds, and
  ``utilization`` (busy / (makespan x workers)).
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, TextIO

from repro.analysis.tables import format_table

if TYPE_CHECKING:
    from repro.experiments.results import ScenarioMetrics

#: A ``task_done`` record's telemetry, said once: (record key, the
#: :class:`ScenarioMetrics` field it comes from, decimals to round to or
#: None).  A None, NaN or empty value is left out of the record.  The
#: ``forensic_*`` rows appear only on a cell that ran burst forensics
#: (a finite ``forensic_burst_rate``), so ``sweeplog``/``--follow`` can
#: tell zero bursts from no forensics.
TASK_DONE_FIELDS = (
    ("events_executed", "perf_events_executed", None),
    ("sim_wall_ratio", "perf_sim_wall_ratio", 3),
    ("peak_rss_kb", "perf_peak_rss_kb", None),
    ("engine", "perf_engine", None),
    ("forensic_bursts", "forensic_bursts", None),
    ("forensic_sync_linked", "forensic_sync_linked", None),
    ("forensic_burst_rate", "forensic_burst_rate", 6),
    ("forensic_sync_linked_fraction", "forensic_sync_linked_fraction", 6),
)

#: Slowest cells a summary lists.
SLOWEST = 5
#: The events after which an echoing :class:`RunLog` prints its status.
_ECHOED = ("task_done", "task_failed", "cache_hit", "sweep_end")


def _present(**fields: Any) -> Dict[str, Any]:
    """``fields`` without their None, NaN and empty values, which a
    record leaves out."""
    return {
        key: value
        for key, value in fields.items()
        if value is not None and value == value and value != ""
    }


def _utilization(busy: float, makespan: float, workers: int) -> float:
    """busy / (makespan x workers); NaN without a makespan or a worker."""
    return busy / (makespan * workers) if makespan > 0 and workers > 0 else float("nan")


def _elapsed(record: Dict[str, Any]) -> float:
    return float(record.get("elapsed") or 0.0)


def _note_done(stats: Dict[str, Any], elapsed: float) -> None:
    stats["cells"] += 1
    stats["busy"] += elapsed
    stats["max"] = max(stats["max"], elapsed)


@dataclass
class Progress:
    """The fold over run-log records, one :meth:`add` per record.

    Counts and sums what a sweep did -- outcomes, busy time per worker,
    backend and engine, forensic columns, the slowest cells -- across
    every sweep it is fed.  :meth:`render` is the one-line status,
    :meth:`summary` the dict :func:`summarize_runlog` returns.
    """

    total: int = 0
    completed: int = 0
    failed: int = 0
    cached: int = 0
    retried: int = 0
    respawned: int = 0
    sweeps: int = 0
    workers: int = 0  # the largest pool of any sweep
    pool: str = ""
    schedule: str = ""
    busy: float = 0.0
    #: The latest sweep's own pool and busy seconds (its ``sweep_end``).
    sweep_workers: int = 0
    sweep_busy: float = 0.0
    #: Summed ``sweep_end`` makespans; None until one arrives, the span
    #: of the records' timestamps standing in (a killed run).
    ended_makespan: Optional[float] = None
    t_first: Optional[float] = None
    t_last: Optional[float] = None
    per_worker: Dict[Any, Dict[str, float]] = field(default_factory=dict)
    lanes: Dict[str, int] = field(default_factory=dict)
    backends: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    engines: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    forensics: Dict[str, Any] = field(
        default_factory=lambda: {
            "cells": 0, "bursts": 0, "sync_linked": 0,
            "rate_sum": 0.0, "linked_sum": 0.0, "linked_cells": 0,
        }
    )
    slowest: List[Dict[str, Any]] = field(default_factory=list)
    #: index -> backend, from task_start/task_done tags, so task_failed
    #: records (which carry no backend) still attribute.
    cell_backend: Dict[Any, str] = field(default_factory=dict)

    @property
    def finished(self) -> int:
        """Cells with a final outcome (success, cache hit, or failure)."""
        return self.completed + self.failed + self.cached

    @property
    def makespan(self) -> float:
        if self.ended_makespan is not None:
            return self.ended_makespan
        return self.t_last - self.t_first if self.t_last is not None else 0.0

    @property
    def utilization(self) -> float:
        return _utilization(self.busy, self.makespan, self.workers)

    # ------------------------------------------------------------------
    def add(self, record: Dict[str, Any]) -> None:
        """Fold one run-log record in."""
        kind = record.get("event")
        t = record.get("t")
        if isinstance(t, (int, float)):
            self.t_first = t if self.t_first is None else min(self.t_first, t)
            self.t_last = t if self.t_last is None else max(self.t_last, t)
        if kind == "task_done":
            self._add_done(record)
        elif kind == "task_start":
            if record.get("backend"):
                self.cell_backend[record.get("index")] = record["backend"]
        elif kind == "cache_hit":
            self.cached += 1
        elif kind == "task_failed":
            self.failed += 1
            backend = self.cell_backend.get(record.get("index"), "")
            if backend:
                self._backend(backend)["failed"] += 1
        elif kind == "task_retry":
            self.retried += 1
        elif kind == "worker_respawn":
            self.respawned += 1
        elif kind == "sweep_start":
            self.sweeps += 1
            self.total += int(record.get("total") or 0)
            self.sweep_workers = int(record.get("workers") or 0)
            self.sweep_busy = 0.0
            self.workers = max(self.workers, self.sweep_workers)
            self.pool = record.get("pool", self.pool) or ""
            self.schedule = record.get("schedule", self.schedule) or ""
        elif kind == "sweep_end":
            self.ended_makespan = (self.ended_makespan or 0.0) + float(
                record.get("makespan") or 0.0
            )

    def _backend(self, backend: str) -> Dict[str, Any]:
        return self.backends.setdefault(
            backend, {"cells": 0, "busy": 0.0, "max": 0.0, "failed": 0}
        )

    def _add_done(self, record: Dict[str, Any]) -> None:
        elapsed = _elapsed(record)
        self.completed += 1
        self.busy += elapsed
        self.sweep_busy += elapsed
        lane = record.get("lane", "")
        if lane:
            self.lanes[lane] = self.lanes.get(lane, 0) + 1
        backend = record.get("backend", "")
        if backend:
            self.cell_backend[record.get("index")] = backend
            _note_done(self._backend(backend), elapsed)
        engine = record.get("engine", "")
        if engine:
            stats = self.engines.setdefault(
                engine, {"cells": 0, "busy": 0.0, "max": 0.0, "fallbacks": 0}
            )
            _note_done(stats, elapsed)
            stats["fallbacks"] += bool(record.get("engine_fallback"))
        stats = self.per_worker.setdefault(
            record.get("worker"), {"cells": 0, "busy": 0.0}
        )
        stats["cells"] += 1
        stats["busy"] += elapsed
        if "forensic_bursts" in record:
            forensics = self.forensics
            forensics["cells"] += 1
            forensics["bursts"] += int(record.get("forensic_bursts") or 0)
            forensics["sync_linked"] += int(record.get("forensic_sync_linked") or 0)
            forensics["rate_sum"] += float(record.get("forensic_burst_rate") or 0.0)
            linked = record.get("forensic_sync_linked_fraction")
            if linked is not None:
                forensics["linked_sum"] += float(linked)
                forensics["linked_cells"] += 1
        # Longest first, ties in arrival order: the head of a stable sort
        # of every done record, kept a few records long.
        slowest = self.slowest
        if len(slowest) < SLOWEST or elapsed > _elapsed(slowest[-1]):
            slowest.append(record)
            slowest.sort(key=_elapsed, reverse=True)
            del slowest[SLOWEST:]

    # ------------------------------------------------------------------
    def render(self) -> str:
        """One status line, e.g. ``[ 12/40] ok=9 cached=3 failed=0
        retried=2``, plus the burst counts once a cell ran forensics."""
        width = len(str(self.total))
        line = (
            f"[{self.finished:{width}d}/{self.total}] "
            f"ok={self.completed} cached={self.cached} "
            f"failed={self.failed} retried={self.retried}"
        )
        if self.forensics["cells"]:
            line += (
                f" bursts={self.forensics['bursts']}"
                f" sync-linked={self.forensics['sync_linked']}"
            )
        return line

    def summary(self) -> Dict[str, Any]:
        """Totals, makespan, worker utilization, the ``schedule`` and
        ``lanes`` of a log old enough to name them, per-worker busy
        time / cell counts, a per-backend breakdown (cells,
        busy/mean/max seconds, failures), the same per flow engine (with
        tie-guard fallbacks in place of failures), respawns, the
        forensic aggregate and the slowest cells: a fresh dict, which
        later records do not change."""
        forensics = self.forensics
        cells, linked_cells = forensics["cells"], forensics["linked_cells"]
        nan = float("nan")

        def with_mean(table: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
            return {
                name: dict(stats, mean=stats["busy"] / stats["cells"] if stats["cells"] else 0.0)
                for name, stats in table.items()
            }

        return {
            "sweeps": self.sweeps,
            "total": self.total,
            "completed": self.completed,
            "cached": self.cached,
            "failed": self.failed,
            "retried": self.retried,
            "respawned": self.respawned,
            "workers": self.workers,
            "pool": self.pool,
            "schedule": self.schedule,
            "makespan": self.makespan,
            "busy": self.busy,
            "utilization": self.utilization,
            "per_worker": {w: dict(stats) for w, stats in self.per_worker.items()},
            "lanes": dict(self.lanes),
            "backends": with_mean(self.backends),
            "engines": with_mean(self.engines),
            "forensics": {
                "cells": cells,
                "bursts": forensics["bursts"],
                "sync_linked": forensics["sync_linked"],
                "burst_rate_mean": forensics["rate_sum"] / cells if cells else nan,
                "sync_linked_fraction_mean": (
                    forensics["linked_sum"] / linked_cells if linked_cells else nan
                ),
            },
            "slowest": list(self.slowest),
        }


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
        if path is not None:
            self._handle = open(path, "a", encoding="utf-8")

    # ------------------------------------------------------------------
    def emit(self, event: str, **data: Any) -> None:
        """Fold one event record into :attr:`progress` and append it,
        flushing so kills lose nothing."""
        record = {"event": event, "t": time.time()}
        record.update(data)
        self.progress.add(record)
        if self._handle is not None:
            self._handle.write(json.dumps(record, sort_keys=True) + "\n")
            self._handle.flush()
        if self.echo is not None and event in _ECHOED:
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
    # The events with a shape of their own; the rest are plain emits.
    # ------------------------------------------------------------------
    def sweep_start(self, total: int, **data: Any) -> None:
        self._sweep_t0 = time.monotonic()
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
        self.emit("task_start", **_present(
            index=index, digest=digest, label=label, attempt=attempt,
            worker=worker, backend=backend,
        ))

    def task_done(
        self,
        index: int,
        digest: str,
        elapsed: float,
        metrics: Optional["ScenarioMetrics"] = None,
        attempt: int = 0,
        worker: Optional[int] = None,
        backend: str = "",
        engine_fallback: bool = False,
    ) -> None:
        """Record one completed cell and its ``metrics``' telemetry.

        ``attempt`` is how many failed attempts preceded this success,
        so retries stay auditable from the JSONL log.  ``backend`` tags
        the row with the solver that produced it, whose wall-time
        regimes differ by orders of magnitude; ``engine_fallback`` marks a cell the batch engine gave up on.
        """
        telemetry: Dict[str, Any] = {}
        if metrics is not None:
            observed = math.isfinite(metrics.forensic_burst_rate)
            for key, name, digits in TASK_DONE_FIELDS:
                if observed or not key.startswith("forensic_"):
                    value = getattr(metrics, name)
                    telemetry[key] = value if digits is None else round(value, digits)
        self.emit("task_done", **_present(
            index=index, digest=digest, elapsed=elapsed, attempt=attempt,
            worker=worker, backend=backend,
            engine_fallback=engine_fallback or None, **telemetry,
        ))

    def sweep_end(self) -> None:
        progress = self.progress
        extras: Dict[str, Any] = {}
        if self._sweep_t0 is not None:
            makespan = time.monotonic() - self._sweep_t0
            busy = progress.sweep_busy
            utilization = _utilization(busy, makespan, progress.sweep_workers)
            extras = _present(
                makespan=round(makespan, 6), busy=round(busy, 6),
                utilization=round(utilization, 4),
            )
        counters = ("total", "completed", "cached", "failed", "retried", "respawned")
        self.emit(
            "sweep_end", **{key: getattr(progress, key) for key in counters}, **extras
        )


class RunLogTail:
    """Incremental JSONL reader for a file another process is writing.

    Keeps a byte offset and a partial-line buffer between polls, so a
    record written in two chunks is parsed once complete rather than
    dropped.  A missing file (the sweep has not started yet) reads as
    no new events, and a torn or corrupt line, or one that is not a JSON
    object, is skipped.
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
                event = json.loads(line)
            except ValueError:
                continue  # torn or corrupt line
            if isinstance(event, dict):
                events.append(event)
        return events


def read_runlog(path: str) -> List[Dict[str, Any]]:
    """Every complete record of a JSONL run log (none if it is missing;
    a final line without its newline is a torn write and is skipped)."""
    return RunLogTail(path).poll()


def summarize_runlog(events: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold an event stream into a sweep execution summary
    (:meth:`Progress.summary`) -- everything needed to audit a sweep's
    makespan from its JSONL log alone (``repro-tcp sweeplog``).  A
    killed run (no ``sweep_end``) still summarizes from the per-task
    events; makespan then falls back to the span of observed
    timestamps."""
    progress = Progress()
    for event in events:
        progress.add(event)
    return progress.summary()


# ----------------------------------------------------------------------
# Rendering: the post-hoc report and the dashboard frame share their text
# ----------------------------------------------------------------------
def _percent(value: float) -> str:
    return f"{100.0 * value:.1f}%" if value == value else "n/a"


def _pool_text(summary: Dict[str, Any]) -> str:
    """``pool=... [schedule=... ]workers=N``: ``schedule=`` only for a
    log that names one (written when there were two orders to tell
    apart)."""
    schedule = f"schedule={summary['schedule']} " if summary["schedule"] else ""
    return f"pool={summary['pool'] or '?'} {schedule}workers={summary['workers']}"


def _forensics_text(summary: Dict[str, Any]) -> Optional[str]:
    forensics = summary["forensics"]
    if not forensics["cells"]:
        return None
    rate = forensics["burst_rate_mean"]
    linked = forensics["sync_linked_fraction_mean"]
    return (
        f"forensics: {forensics['bursts']} burst(s), "
        f"{forensics['sync_linked']} sync-linked across "
        f"{forensics['cells']} cell(s)"
        + (f", mean burst rate {rate:.3f}/s" if rate == rate else "")
        + (f", mean sync-linked {100.0 * linked:.0f}%" if linked == linked else "")
    )


def _by_worker(summary: Dict[str, Any]) -> List[tuple]:
    return sorted(
        summary["per_worker"].items(), key=lambda item: (item[0] is None, item[0])
    )


def render_summary(summary: Dict[str, Any]) -> str:
    """A ``repro-tcp profile``-style text report of one run-log summary."""
    lines = [
        f"Sweep execution: {_pool_text(summary)} "
        f"({summary['sweeps']} sweep(s), {summary['total']} cells)",
        f"makespan {summary['makespan']:.3f}s, busy "
        f"{summary['busy']:.3f} worker-seconds, utilization "
        f"{_percent(summary['utilization'])}",
        f"completed={summary['completed']} cached={summary['cached']} "
        f"failed={summary['failed']} retried={summary['retried']} "
        f"respawned={summary['respawned']}",
    ]
    forensics = _forensics_text(summary)
    if forensics:
        lines.append(forensics)
    tables = []
    for key, first, last, title in (
        ("backends", "backend", "failed", "Per-backend breakdown"),
        ("engines", "engine", "fallbacks", "Per-engine breakdown"),
    ):
        rows = [
            [name, int(stats["cells"])]
            + [round(stats[column], 3) for column in ("busy", "mean", "max")]
            + [int(stats[last])]
            for name, stats in sorted(summary[key].items())
        ]
        tables.append(([first, "cells", "busy s", "mean s", "max s", last], rows, title))
    tables.append((
        ["worker", "cells", "busy s"],
        [
            ["-" if worker is None else worker, int(stats["cells"]), round(stats["busy"], 3)]
            for worker, stats in _by_worker(summary)
        ],
        "Per-worker load",
    ))
    # Burstiness columns appear only when some cell carried forensic
    # fields, so non-forensics logs render exactly as before.
    with_forensics = any("forensic_bursts" in event for event in summary["slowest"])
    headers = ["cell", "digest", "backend", "elapsed s", "attempt"]
    if with_forensics:
        headers += ["bursts", "sync-linked"]
    rows = []
    for event in summary["slowest"]:
        row = [
            event.get("index", "-"),
            str(event.get("digest", ""))[:12],
            event.get("backend", "") or "-",
            round(_elapsed(event), 3),
            event.get("attempt", 0),
        ]
        if with_forensics:
            row += (
                [event["forensic_bursts"], event.get("forensic_sync_linked", 0)]
                if "forensic_bursts" in event
                else ["-", "-"]
            )
        rows.append(row)
    tables.append((headers, rows, "Slowest cells"))
    for headers, rows, title in tables:
        if rows:
            lines += ["", format_table(headers, rows, title=title)]
    return "\n".join(lines)


def _render_frame(summary: Dict[str, Any]) -> str:
    """The multi-line live-dashboard frame for ``sweeplog --follow``,
    with an ETA: remaining cells at the mean completed-cell time,
    divided across the sweep's workers (cache hits count as done)."""
    finished = summary["completed"] + summary["cached"] + summary["failed"]
    remaining = max(summary["total"] - finished, 0)
    if not remaining:
        eta = 0.0
    elif summary["completed"]:
        eta = remaining * summary["busy"] / summary["completed"] / max(summary["workers"], 1)
    else:
        eta = float("nan")
    lines = [
        f"sweep {finished}/{summary['total']} cells "
        f"(ok={summary['completed']} cached={summary['cached']} "
        f"failed={summary['failed']} retried={summary['retried']})",
        f"{_pool_text(summary)} utilization={_percent(summary['utilization'])} "
        + (f"ETA={eta:.1f}s" if eta == eta else "ETA=n/a"),
    ]
    if summary["backends"]:
        lines.append("backends: " + "; ".join(
            f"{backend}: {int(stats['cells'])} cells "
            f"(mean {stats['mean']:.2f}s, max {stats['max']:.2f}s)"
            for backend, stats in sorted(summary["backends"].items())
        ))
    if summary["per_worker"]:
        lines.append("per-worker cells: " + " ".join(
            f"{'-' if worker is None else worker}:{int(stats['cells'])}"
            for worker, stats in _by_worker(summary)
        ))
    forensics = _forensics_text(summary)
    if forensics:
        lines.append(forensics)
    return "\n".join(lines)


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
    to :meth:`Progress.render`'s status line per update.  Stops when
    the log's ``sweep_end`` arrives (rendering the full
    :func:`render_summary` report) or after ``max_updates`` frames (so
    smokes terminate on logs with no end event).  Returns the number of
    frames rendered.

    Args:
        path: run-log path; may not exist yet (renders a waiting frame).
        stream: output stream (default stdout).
        interval: seconds between polls.
        max_updates: stop after this many frames (None = until end).
        tty: force TTY/non-TTY rendering (None = ask the stream).
        sleep: injection point for tests.
    """
    out = stream if stream is not None else sys.stdout
    is_tty = tty if tty is not None else bool(getattr(out, "isatty", lambda: False)())
    clear = "\x1b[H\x1b[2J" if is_tty else ""
    tail = RunLogTail(path)
    progress = Progress()
    updates = 0
    while True:
        new = tail.poll()
        for event in new:
            progress.add(event)
        updates += 1
        if any(e.get("event") == "sweep_end" for e in new):
            out.write(clear + render_summary(progress.summary()) + "\n")
            out.flush()
            return updates
        if new or updates == 1:
            frame = _render_frame(progress.summary()) if is_tty else progress.render()
            out.write(clear + frame + "\n")
            out.flush()
        if max_updates is not None and updates >= max_updates:
            return updates
        sleep(interval)


def stderr_runlog(path: Optional[str] = None, progress: bool = False) -> RunLog:
    """A RunLog wired to ``sys.stderr`` when live progress is wanted."""
    return RunLog(path=path, echo=sys.stderr if progress else None)
