"""Fault-tolerant, resumable sweep execution.

The paper's figures aggregate hundreds of seed-deterministic scenario
runs — an embarrassingly parallel, perfectly cacheable workload.  The
executor is a pool of long-lived workers that import once and drain
the task queue over a duplex pipe, under one robustness contract:
per-cell wall-clock deadline, retry at once, crash isolation via
error-tagged :class:`ScenarioMetrics` placeholders, content-addressed
resume.  A failed cell goes back to the queue as soon as its failure
is seen: a cell is seed-deterministic, so there is no fault outside the
program to wait out.  A worker that crashes (its pipe reads EOF) or
blows its deadline (armed when it reports the cell's start) is killed
and respawned *individually* — the rest of the pool keeps draining.
Workers persist successful results into the :class:`ResultCache`
themselves (same atomic-rename, digest-keyed writes), so the parent
never writes an entry a worker already wrote.

The parent reaps events with :func:`multiprocessing.connection.wait`
over the worker pipes (the wake-up is a pipe write, not a poll loop),
with the wait timeout derived from the nearest deadline.  What it
does per cell does not grow with the grid: the pending tasks sit in one
heap (:class:`_PendingTasks`), and a worker on short cells holds one
more task queued in its pipe, so it starts the next cell without
waiting for the parent's round trip.

Cells launch largest first by :func:`cell_units` (``duration x
n_clients`` for packet cells), ties in grid order: longest processing
time first with size standing in for time, which keeps the makespan of
heterogeneous grids short without measuring anything (DESIGN.md §11
compares it with true cell times).

Worker processes use the ``fork`` start method where the platform
offers it (cheap) and fall back to ``spawn`` elsewhere (macOS default,
Windows), so sweeps run on any CI runner.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Callable, List, Optional, Sequence, Union

from repro.experiments.cache import ResultCache
from repro.experiments.config import ScenarioConfig
from repro.experiments.results import ScenarioMetrics
from repro.experiments.runlog import RunLog
from repro.experiments.scenario import run_scenario

#: A worker whose running cell is expected to end within this many
#: seconds gets one more cell queued in its pipe
#: (:meth:`SweepRunner._feed`); it bounds that cell's extra wait.
QUEUE_AHEAD_S = 0.5
#: Single-valued enumeration shim: the performance ledger lists its
#: pool rows from this tuple and passes ``pool=`` back.  It selects nothing.
POOLS = ("persistent",)

TaskFn = Callable[[ScenarioConfig], ScenarioMetrics]


def run_one(config: ScenarioConfig) -> ScenarioMetrics:
    """Run one configuration and return its flat metrics."""
    return ScenarioMetrics.from_result(run_scenario(config))


def pick_start_method(preferred: Optional[str] = None) -> str:
    """``preferred`` if valid here, else ``fork`` where available, else
    ``spawn`` (macOS/Windows runners have no fork)."""
    available = multiprocessing.get_all_start_methods()
    if preferred is not None:
        if preferred not in available:
            raise ValueError(
                f"start method {preferred!r} unavailable; choose from {available}"
            )
        return preferred
    return "fork" if "fork" in available else "spawn"


# ----------------------------------------------------------------------
# Worker entry point (module level: picklable under spawn)
# ----------------------------------------------------------------------
#: The parent's end of every live worker pipe in this process.  A forked
#: worker is born holding a copy of each (its own pipe's included) and,
#: until it closes them, can never see EOF on its own end -- so it would
#: outlive a SIGKILLed parent, blocked in ``recv`` for good.  Under
#: ``spawn`` the child imports this module afresh and the list is empty.
_PARENT_CONNS: List[Connection] = []


def _pool_worker_main(
    task: TaskFn, cache_dir: Optional[str], conn: Connection
) -> None:
    """Pool child entry: import once, drain tasks until told to stop.

    Protocol (worker -> parent): ``("start", index)`` when a task
    begins and ``("done", index, status, payload, elapsed)`` when it
    ends: the metrics under ``"ok"`` or ``"cached"``, the error text
    under ``"error"``.  ``"cached"`` says the worker has persisted the
    metrics itself (atomic rename under the config digest the task
    message carried), so the parent must not write them again; they
    travel in the payload all the same, which costs less than the
    parent reading the entry back.  The parent may send a second task
    while one runs; it waits in the pipe.
    """
    while _PARENT_CONNS:  # inherited through fork: see _PARENT_CONNS
        _PARENT_CONNS.pop().close()
    cache = ResultCache(cache_dir) if cache_dir is not None else None

    def send(message: tuple) -> None:
        try:
            conn.send(message)
        except (OSError, ValueError):
            pass  # parent went away; the next recv will end the loop

    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            break
        if message[0] != "task":  # ("stop",) or anything unexpected
            break
        _, index, digest, config = message
        send(("start", index))
        started = time.monotonic()
        error: Optional[str] = None
        try:
            metrics = task(config)
            if not isinstance(metrics, ScenarioMetrics):
                raise TypeError(f"task returned {type(metrics).__name__}")
        except KeyboardInterrupt:
            break
        except BaseException as exc:  # noqa: BLE001 - isolate the cell
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.monotonic() - started
        if error is not None:
            send(("done", index, "error", error, elapsed))
            continue
        status = "ok"
        if cache is not None and not metrics.failed:
            try:
                cache.put(config, metrics, digest)
                status = "cached"
            except Exception:
                pass  # disk trouble: the parent tries the write itself
        send(("done", index, status, metrics, elapsed))
    try:
        conn.close()
    except OSError:
        pass


@dataclass(eq=False)  # identity: a generated __eq__ compares whole configs
class _Task:
    """One grid cell's scheduling state."""

    index: int
    config: ScenarioConfig
    digest: str
    attempt: int = 0  # completed attempts so far


@dataclass
class _PoolWorker:
    """A persistent worker and its parent-side bookkeeping."""

    id: int
    process: multiprocessing.process.BaseProcess
    conn: Connection
    current: Optional[_Task] = None  # the cell it runs (or is about to)
    queued: Optional[_Task] = None  # one more, waiting in its pipe
    deadline: Optional[float] = None


def cell_units(config: ScenarioConfig) -> float:
    """A cell's size, the key of the launch order.

    Packet cells: simulated event count grows roughly linearly in both
    the simulated duration and the number of clients, so their product
    is the natural unit of work.  Fluid cells: the ODE solver's step
    count depends on duration only (its state is a window density, not
    N flows), so n_clients drops out.  Hybrid cells: event count tracks
    the K packet-exact foreground flows, not the fluid ambient N.
    """
    units = max(config.duration, 1e-9)
    if config.backend == "hybrid":
        units *= max(config.hybrid_foreground_flows, 1)
    elif config.backend != "fluid":
        units *= max(config.n_clients, 1)
    return units


class _PendingTasks:
    """The tasks waiting for a worker, popped largest first.

    One heap on (:func:`cell_units` descending, enqueue sequence
    ascending): the same pop sequence as a scan of one flat list in
    enqueue order for the largest task, ties to the one enqueued first
    (``tests/pick_reference.py`` is that scan).  A requeued task takes
    a fresh sequence number, so it goes behind the tasks of its size
    already here.
    """

    def __init__(self, tasks: Sequence[_Task]) -> None:
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        for task in tasks:
            self.add(task)

    def __len__(self) -> int:
        return len(self._heap)

    def add(self, task: _Task) -> None:
        """Enqueue ``task`` behind everything of its size already here."""
        heapq.heappush(
            self._heap, (-cell_units(task.config), next(self._seq), task)
        )

    def pop(self) -> Optional[_Task]:
        """Pop the largest task; None if there is none."""
        return heapq.heappop(self._heap)[2] if self._heap else None


class SweepRunner:
    """Submit scenarios individually; survive crashes, hangs, and kills.

    Args:
        processes: worker processes; None picks ``min(cpu, grid size)``.
            Values <= 1 run cells in-process (easiest debugging) unless a
            ``timeout`` is set, which forces one killable worker so
            hangs can be killed.
        timeout: per-scenario wall-clock limit in seconds (None = no
            limit).  Enforced by terminating the worker process and
            respawning only that worker.
        retries: extra attempts per cell after the first failure, each
            queued again as soon as the failure is seen.
        cache: a :class:`ResultCache`, a cache directory path, or None.
        run_log: a :class:`RunLog` for telemetry (None = counters only).
        task: the per-config callable (default :func:`run_one`); must be
            picklable under the chosen start method.
        start_method: multiprocessing start method override (None = fork
            where available, else spawn).
        pool: ``"persistent"``, the only executor (see ``POOLS``).
    """

    def __init__(
        self,
        processes: Optional[int] = None,
        timeout: Optional[float] = None,
        retries: int = 1,
        cache: Union[ResultCache, str, None] = None,
        run_log: Optional[RunLog] = None,
        task: TaskFn = run_one,
        start_method: Optional[str] = None,
        pool: str = "persistent",
    ) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if timeout is not None and timeout <= 0:
            raise ValueError("timeout must be positive")
        if pool not in POOLS:
            raise ValueError(
                f"unknown pool {pool!r}; the persistent pool is the only "
                f"executor (choose from {POOLS})"
            )
        self.processes = processes
        self.timeout = timeout
        self.retries = retries
        self.cache = ResultCache(cache) if isinstance(cache, str) else cache
        self.log = run_log if run_log is not None else RunLog()
        self.task = task
        self.start_method = start_method
        self.pool = pool
        self._worker_seq = itertools.count()
        # Wall seconds and cell units of the cells this sweep's pool has
        # finished: the queue-ahead rule's running rate (:meth:`_feed`).
        self._finished_s = 0.0
        self._finished_units = 0.0

    # ------------------------------------------------------------------
    def run(self, configs: Sequence[ScenarioConfig]) -> List[ScenarioMetrics]:
        """Run the grid, preserving input order.

        Every cell yields exactly one :class:`ScenarioMetrics`: a real
        result, a cache hit, or (after retries are exhausted) an
        error-tagged placeholder.  The call itself only raises for
        scheduling bugs or ``KeyboardInterrupt``, never for a failing
        scenario.
        """
        configs = list(configs)
        workers = self.processes
        if workers is None:
            workers = min(os.cpu_count() or 1, len(configs)) or 1
        results: List[Optional[ScenarioMetrics]] = [None] * len(configs)

        pending: List[_Task] = []
        hits: List[tuple] = []  # (index, digest), logged once the sweep starts
        for index, config in enumerate(configs):
            digest = config.config_digest()
            cached = (
                self.cache.get(config, digest) if self.cache is not None else None
            )
            if cached is not None:
                results[index] = cached
                hits.append((index, digest))
            else:
                pending.append(_Task(index, config, digest))
        in_process = workers <= 1 and self.timeout is None
        # The pool the sweep runs on, which is what its utilization
        # divides by: no more workers than cells left to run.
        pool_size = min(1 if in_process else max(workers, 1), len(pending))
        self.log.sweep_start(
            total=len(configs),
            workers=pool_size,
            timeout=self.timeout,
            retries=self.retries,
            cache_dir=self.cache.directory if self.cache is not None else None,
            pool=self.pool,
        )
        for index, digest in hits:
            self.log.emit("cache_hit", index=index, digest=digest)
        if in_process and pending:
            self._run_in_process(pending, results)
        elif pending:
            self._run_pool(pending, results, pool_size)
        self.log.sweep_end()
        assert all(m is not None for m in results)
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Outcome bookkeeping shared by all execution modes
    # ------------------------------------------------------------------
    def _record_success(
        self,
        task: _Task,
        metrics: ScenarioMetrics,
        results: List,
        elapsed: float,
        worker: Optional[int] = None,
        already_cached: bool = False,
    ) -> None:
        results[task.index] = metrics
        if self.cache is not None and not already_cached and not metrics.failed:
            self.cache.put(task.config, metrics, task.digest)
        self.log.task_done(
            task.index,
            task.digest,
            elapsed,
            metrics,
            attempt=task.attempt,
            worker=worker,
            backend=task.config.backend,
            engine_fallback=(
                metrics.perf_engine == "object"
                and task.config.resolved_engine() == "batch"
            ),
        )

    def _record_failure(self, task: _Task, error: str, results: List) -> bool:
        """Log a retry if attempts remain; else write the placeholder.
        Returns whether to run ``task`` again."""
        task.attempt += 1
        if task.attempt <= self.retries:
            self.log.emit(
                "task_retry", index=task.index, digest=task.digest,
                attempt=task.attempt, error=error,
            )
            return True
        results[task.index] = ScenarioMetrics.failure(task.config, error)
        self.log.emit("task_failed", index=task.index, digest=task.digest, error=error)
        return False

    def _take_cached(self, task: _Task, results: List) -> bool:
        """Answer ``task`` from the cache if it is there now: a duplicate
        grid entry or a concurrent sweep sharing the directory may have
        finished the cell since :meth:`run` looked."""
        cached = (
            self.cache.get(task.config, task.digest) if self.cache is not None else None
        )
        if cached is None:
            return False
        results[task.index] = cached
        self.log.emit("cache_hit", index=task.index, digest=task.digest)
        return True

    # ------------------------------------------------------------------
    # In-process execution (no timeout enforcement, no crash isolation)
    # ------------------------------------------------------------------
    def _run_in_process(self, tasks: List[_Task], results: List) -> None:
        # Sequential makespan is order-free; keep the pool's launch
        # order anyway so logs read identically across modes.
        tasks = sorted(
            tasks, key=lambda task: cell_units(task.config), reverse=True
        )
        for task in tasks:
            if self._take_cached(task, results):
                continue
            while True:
                started = time.monotonic()
                self.log.task_start(
                    task.index, task.digest, task.config.label, task.attempt,
                    backend=task.config.backend,
                )
                try:
                    metrics = self.task(task.config)
                except KeyboardInterrupt:
                    raise
                except Exception as exc:  # noqa: BLE001 - isolate the cell
                    if not self._record_failure(
                        task, f"{type(exc).__name__}: {exc}", results
                    ):
                        break
                else:
                    elapsed = time.monotonic() - started
                    self._record_success(task, metrics, results, elapsed)
                    break

    # ------------------------------------------------------------------
    # Pool execution: long-lived workers drain the queue
    # ------------------------------------------------------------------
    @staticmethod
    def _terminate(process: multiprocessing.process.BaseProcess) -> None:
        process.terminate()
        process.join(timeout=2.0)
        if process.is_alive():  # pragma: no cover - SIGTERM was ignored
            process.kill()
            process.join(timeout=2.0)

    @staticmethod
    def _close_conn(worker: _PoolWorker) -> None:
        """Close the parent's end of a stopped worker's pipe."""
        _PARENT_CONNS.remove(worker.conn)
        try:
            worker.conn.close()
        except OSError:
            pass

    @staticmethod
    def _wait_timeout(deadlines) -> Optional[float]:
        """Seconds until the nearest deadline; None when there is none
        (pure event wait)."""
        nearest = min((d for d in deadlines if d is not None), default=None)
        if nearest is None:
            return None
        return max(nearest - time.monotonic(), 0.0)

    def _spawn_worker(self, context, cache_dir: Optional[str]) -> _PoolWorker:
        worker_id = next(self._worker_seq)
        parent_conn, child_conn = context.Pipe(duplex=True)
        process = context.Process(
            target=_pool_worker_main,
            args=(self.task, cache_dir, child_conn),
            daemon=True,
        )
        _PARENT_CONNS.append(parent_conn)
        process.start()
        child_conn.close()  # keep only the child's copy
        self.log.emit("worker_spawn", worker=worker_id)
        return _PoolWorker(id=worker_id, process=process, conn=parent_conn)

    def _arm_deadline(self, worker: _PoolWorker) -> None:
        """Run the worker's wall-clock limit from now, for the cell it
        has; no cell or no ``timeout``, no deadline."""
        worker.deadline = (
            time.monotonic() + self.timeout
            if self.timeout is not None and worker.current is not None
            else None
        )

    def _dispatch(self, worker: _PoolWorker, task: _Task) -> None:
        """Send ``task`` down the worker's pipe: its running cell if it
        has none, else the one queued behind it.  ``task_start`` is
        logged when the worker reports the start."""
        if worker.current is None:
            worker.current = task
            self._arm_deadline(worker)
        else:
            worker.queued = task
        try:
            worker.conn.send(("task", task.index, task.digest, task.config))
        except (OSError, ValueError):
            pass  # worker already died; the wait loop reaps the EOF

    def _next_uncached(
        self, pending: _PendingTasks, results: List
    ) -> Optional[_Task]:
        """Pop tasks until one misses the cache."""
        while True:
            task = pending.pop()
            if task is None or not self._take_cached(task, results):
                return task

    def _feed(
        self,
        workers: List[_PoolWorker],
        pending: _PendingTasks,
        results: List,
    ) -> None:
        """Give every idle worker a cell, then every worker on a short
        cell one more, queued in its pipe, so it starts that one without
        idling through the parent's done -> log -> pick -> send round
        trip.  Breadth first: nobody holds two while anybody holds none.

        Short means the running cell's units, priced at the seconds per
        unit of the cells this pool has finished, come to at most
        :data:`QUEUE_AHEAD_S`: the queued cell then waits at most about
        that long for a worker that may have been free sooner (the tail
        loss), and behind a longer cell the round trip saved is under
        0.2 % of it (a millisecond against half a second) for an
        unbounded wait.  So nothing queues before the first cell
        finishes or behind a long cell.
        """
        for worker in workers:
            if worker.current is None:
                task = self._next_uncached(pending, results)
                if task is None:
                    return
                self._dispatch(worker, task)
        if not self._finished_units:
            return
        rate = self._finished_s / self._finished_units
        for worker in workers:
            if (
                worker.queued is None
                and worker.current is not None
                and rate * cell_units(worker.current.config) <= QUEUE_AHEAD_S
            ):
                task = self._next_uncached(pending, results)
                if task is None:
                    return
                self._dispatch(worker, task)

    def _run_pool(
        self,
        tasks: List[_Task],
        results: List,
        pool_size: int,
    ) -> None:
        context = multiprocessing.get_context(pick_start_method(self.start_method))
        cache_dir = self.cache.directory if self.cache is not None else None
        pending = _PendingTasks(tasks)
        self._finished_s = self._finished_units = 0.0
        workers: List[_PoolWorker] = [
            self._spawn_worker(context, cache_dir) for _ in range(pool_size)
        ]
        try:
            while pending or any(w.current is not None for w in workers):
                self._feed(workers, pending, results)
                if not any(w.current is not None for w in workers):
                    continue  # the last pops were all cache hits
                timeout = self._wait_timeout(
                    w.deadline for w in workers if w.current is not None
                )
                ready = wait([w.conn for w in workers], timeout=timeout)
                for conn in ready:
                    worker = next(
                        (w for w in workers if w.conn is conn), None
                    )
                    if worker is not None:
                        self._drain_worker(
                            worker, workers, pending, results,
                            context, cache_dir,
                        )
                now = time.monotonic()
                for worker in list(workers):
                    if (
                        worker.current is not None
                        and worker.deadline is not None
                        and now > worker.deadline
                    ):
                        self._retire_worker(
                            worker, workers, pending, results,
                            error=f"timeout after {self.timeout:g}s",
                            reason="timeout",
                            context=context, cache_dir=cache_dir,
                        )
        finally:
            self._shutdown_pool(workers)

    def _drain_worker(
        self,
        worker: _PoolWorker,
        workers: List[_PoolWorker],
        pending: _PendingTasks,
        results: List,
        context,
        cache_dir: Optional[str],
    ) -> None:
        """Consume every queued message from one worker's pipe."""
        while True:
            try:
                if not worker.conn.poll():
                    return
                message = worker.conn.recv()
            except (EOFError, OSError):
                # The pipe closed: the worker died (hard crash, os._exit,
                # OOM kill) — possibly mid-cell.
                worker.process.join(timeout=5.0)
                code = worker.process.exitcode
                self._retire_worker(
                    worker, workers, pending, results,
                    error=f"worker crashed (exit code {code})",
                    reason="crash",
                    context=context, cache_dir=cache_dir,
                )
                return
            kind = message[0]
            if kind == "start":
                task = worker.current
                if task is not None and task.index == message[1]:
                    self.log.task_start(
                        task.index, task.digest, task.config.label, task.attempt,
                        worker=worker.id, backend=task.config.backend,
                    )
                    # Start the deadline clock when the task actually
                    # begins, not when it was sent: under spawn the
                    # first dispatch races worker startup (module
                    # imports), and a queued task waits out its
                    # predecessor.
                    self._arm_deadline(worker)
                continue
            if kind != "done":  # unknown message; ignore
                continue
            _, index, status, payload, elapsed = message
            task = worker.current
            # The worker is already receiving the task queued behind
            # this one; its own start message re-arms the deadline.
            worker.current, worker.queued = worker.queued, None
            self._arm_deadline(worker)
            if task is None or task.index != index:
                continue  # stale report from a task already written off
            if status == "error":
                if self._record_failure(task, str(payload), results):
                    pending.add(task)
            else:
                self._finished_s += elapsed
                self._finished_units += cell_units(task.config)
                self._record_success(
                    task, payload, results, elapsed,
                    worker=worker.id, already_cached=status == "cached",
                )

    def _retire_worker(
        self,
        worker: _PoolWorker,
        workers: List[_PoolWorker],
        pending: _PendingTasks,
        results: List,
        error: str,
        reason: str,
        context,
        cache_dir: Optional[str],
    ) -> None:
        """Kill-and-respawn of one stuck or dead worker.

        Only this worker is replaced; the rest of the pool never stops
        draining.  Its in-flight task (if any) goes through the normal
        retry/placeholder bookkeeping; a task queued behind that one
        never started, so it goes back to pending with no attempt spent.
        """
        task, queued = worker.current, worker.queued
        worker.current = worker.queued = None
        worker.deadline = None
        self._terminate(worker.process)
        self._close_conn(worker)
        if task is not None and self._record_failure(task, error, results):
            pending.add(task)
        if queued is not None:
            pending.add(queued)
        slot = workers.index(worker)
        if pending:
            replacement = self._spawn_worker(context, cache_dir)
            workers[slot] = replacement
            self.log.emit(
                "worker_respawn",
                worker=replacement.id,
                reason=reason,
                index=task.index if task is not None else None,
                replaced=worker.id,
            )
        else:
            workers.pop(slot)

    def _shutdown_pool(self, workers: List[_PoolWorker]) -> None:
        """Stop every worker: graceful stop message, then terminate."""
        for worker in workers:
            try:
                worker.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        grace = time.monotonic() + 2.0
        for worker in workers:
            worker.process.join(
                timeout=max(grace - time.monotonic(), 0.1)
            )
            if worker.process.is_alive():
                self._terminate(worker.process)
            self._close_conn(worker)
