"""The persistent worker pool's failure matrix and differential tests.

Every behaviour of the robustness contract — crash isolation, deadline
kill-and-respawn of only the stuck worker, retry-then-placeholder,
KeyboardInterrupt draining, cache-hit resume — is asserted for every
pool the runner exports.  The differential matrix proves the pool and
the in-process path produce byte-identical
:class:`ScenarioMetrics` (same config digests, same metric values,
stable after a ``from_dict`` round-trip).
"""

import collections
import functools
import heapq
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from dataclasses import fields

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.config import paper_config
from repro.experiments.results import ScenarioMetrics
from repro.experiments.cli import main as cli_main
from repro.experiments.runlog import RunLog, read_runlog, summarize_runlog
from repro.experiments.runner import POOLS, SweepRunner, run_one
from repro.experiments.sweep import run_many

pytestmark = pytest.mark.skipif(
    sys.platform == "win32",
    reason="the misbehaving task stubs rely on POSIX process semantics",
)

EVERY_POOL = pytest.mark.parametrize("pool", list(POOLS))


def tiny(**overrides):
    defaults = dict(n_clients=2, duration=3.0, seed=1)
    defaults.update(overrides)
    return paper_config(**defaults)


# ----------------------------------------------------------------------
# Deliberately misbehaving task stubs (module level: picklable by fork)
# ----------------------------------------------------------------------
def _crash_on_seed_2(config):
    if config.seed == 2:
        os._exit(17)
    return run_one(config)


def _raise_always(config):
    raise RuntimeError("scripted failure")


def _flaky_once(config):
    """Fails the first time it is ever called, then behaves.  The
    sentinel is created exclusively, so of two workers that start at
    once exactly one fails."""
    try:
        os.close(os.open(os.environ["REPRO_TEST_POOL_SENTINEL"], os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return run_one(config)
    raise RuntimeError("first attempt fails")


def _return_nothing(config):
    return None


def _instant(config):
    """A finished cell for free: a well-formed, not-failed record."""
    return ScenarioMetrics.failure(config, "")


def _scripted(config, nap, bad_seed, fate):
    """A cell that costs a fixed sleep, whatever the host's speed: every
    test that races a wall-clock deadline against the rest of the grid
    takes its cells from here, never from the simulator.  The cell with
    ``bad_seed`` hangs, or crashes after 0.3 s (time for the parent to
    queue a cell behind it); the others nap and return."""
    if config.seed == bad_seed:
        time.sleep(300 if fate == "hang" else 0.3)
        os._exit(17)
    time.sleep(nap)
    return _instant(config)


def scripted(nap, bad_seed, fate="hang"):
    return functools.partial(_scripted, nap=nap, bad_seed=bad_seed, fate=fate)


#: The SIGINT driver: argv = pool, seeds, the seed whose cell interrupts
#: the parent, and how long that cell waits before it does.
_INTERRUPT_DRIVER = (
    "import multiprocessing, os, signal, sys, time\n"
    "from repro.experiments.config import paper_config\n"
    "from repro.experiments.runner import SweepRunner, run_one\n"
    "\n"
    "def interrupt_parent(config):\n"
    "    if config.seed == int(sys.argv[3]):\n"
    "        time.sleep(float(sys.argv[4]))\n"
    "        os.kill(os.getppid(), signal.SIGINT)\n"
    "        time.sleep(30)\n"
    "    return run_one(config)\n"
    "\n"
    "configs = [paper_config(n_clients=2, duration=3.0, seed=s)\n"
    "           for s in range(1, int(sys.argv[2]) + 1)]\n"
    "runner = SweepRunner(processes=2, timeout=60,\n"
    "                     pool=sys.argv[1], task=interrupt_parent)\n"
    "try:\n"
    "    runner.run(configs)\n"
    "except KeyboardInterrupt:\n"
    "    deadline = time.time() + 10\n"
    "    while multiprocessing.active_children() and time.time() < deadline:\n"
    "        time.sleep(0.05)\n"
    "    sys.exit(0 if not multiprocessing.active_children() else 3)\n"
    "sys.exit(4)  # the interrupt never arrived\n"
)


def driver_env():
    """The environment a driver script needs to import ``repro``."""
    env = dict(os.environ)
    src = os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")
    )
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_interrupt_driver(tmp_path, pool, cells, interrupt_seed, wait):
    driver = tmp_path / "driver.py"
    driver.write_text(_INTERRUPT_DRIVER)
    return subprocess.run(
        [sys.executable, str(driver), pool, str(cells), str(interrupt_seed), str(wait)],
        env=driver_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestFailureMatrix:
    @EVERY_POOL
    def test_worker_crash_mid_cell(self, pool):
        """A hard crash yields a placeholder; the rest of the grid and
        the surviving worker finish normally."""
        configs = [tiny(seed=s) for s in (1, 2, 3, 4)]
        log = RunLog()
        runner = SweepRunner(
            processes=2, timeout=60, retries=0, task=_crash_on_seed_2,
            pool=pool, run_log=log,
        )
        results = runner.run(configs)
        assert [m.seed for m in results] == [1, 2, 3, 4]
        assert results[1].failed
        assert "exit code 17" in results[1].error
        assert [m.failed for m in results] == [False, True, False, False]
        assert log.progress.completed == 3
        assert log.progress.failed == 1

    @EVERY_POOL
    def test_deadline_kills_only_the_stuck_worker(self, pool, tmp_path):
        """One hanging cell is killed at its deadline while the other
        worker keeps draining; exactly one respawn."""
        hang = tiny(seed=99, n_clients=2, duration=500.0)  # biggest estimate
        normal = [tiny(seed=s) for s in range(1, 25)]
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            # The deadline must fire while normal cells are still queued,
            # or the pool has nothing left to prove the respawned worker
            # works on: 24 naps of 0.2 s on the one free worker are 4.8 s
            # of drain against a 2-s deadline, on any host.
            runner = SweepRunner(
                processes=2, timeout=2.0, retries=0,
                task=scripted(nap=0.2, bad_seed=99),
                pool=pool, run_log=log,
            )
            results = runner.run([hang] + normal)
        assert results[0].failed
        assert "timeout after 2" in results[0].error
        assert all(not m.failed for m in results[1:])
        events = read_runlog(path)
        respawns = [e for e in events if e["event"] == "worker_respawn"]
        assert len(respawns) == 1
        assert respawns[0]["reason"] == "timeout"
        assert respawns[0]["index"] == 0
        # The other worker was never replaced: every cell completed
        # on a worker that is not the replaced one.
        replaced = respawns[0]["replaced"]
        done_workers = {
            e["worker"] for e in events if e["event"] == "task_done"
        }
        assert replaced not in done_workers

    @EVERY_POOL
    def test_retry_then_placeholder(self, pool):
        """retries=2 means three attempts, then an error placeholder."""
        log = RunLog()
        runner = SweepRunner(
            processes=1, timeout=60, retries=2, backoff=0.02,
            task=_raise_always, pool=pool, run_log=log,
        )
        results = runner.run([tiny()])
        assert results[0].failed
        assert "scripted failure" in results[0].error
        assert log.progress.retried == 2
        assert log.progress.failed == 1
        # An in-worker exception is not a worker death: no respawns.
        assert log.progress.respawned == 0

    def test_task_that_returns_no_metrics_is_a_failed_cell(self, tmp_path):
        """With or without a cache to write to, the worker reports it
        as the cell's error; nothing malformed reaches the parent."""
        for cache in (None, str(tmp_path)):
            runner = SweepRunner(
                processes=1, timeout=60, retries=0, task=_return_nothing, cache=cache
            )
            (result,) = runner.run([tiny()])
            assert result.failed
            assert "task returned NoneType" in result.error
            assert runner.log.progress.respawned == 0

    @EVERY_POOL
    def test_retry_attempt_recorded_in_task_done(self, pool, tmp_path, monkeypatch):
        """The attempt count of the eventual success is auditable."""
        monkeypatch.setenv(
            "REPRO_TEST_POOL_SENTINEL", str(tmp_path / "sentinel")
        )
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            runner = SweepRunner(
                processes=1, timeout=60, retries=2, backoff=0.02,
                task=_flaky_once, pool=pool, run_log=log,
            )
            results = runner.run([tiny()])
        assert not results[0].failed
        done = [e for e in read_runlog(path) if e["event"] == "task_done"]
        assert len(done) == 1
        assert done[0]["attempt"] == 1  # one failed attempt preceded it

    @EVERY_POOL
    def test_keyboard_interrupt_drains_workers(self, pool, tmp_path):
        """SIGINT mid-sweep propagates KeyboardInterrupt and leaves no
        orphan worker processes behind."""
        proc = run_interrupt_driver(tmp_path, pool, cells=4, interrupt_seed=2, wait=0)
        assert proc.returncode == 0, (proc.returncode, proc.stderr)

    @EVERY_POOL
    def test_cache_hit_resume_after_failures(self, pool, tmp_path):
        """Completed cells resume from the cache; failed cells (never
        cached) are re-attempted on the next run."""
        cache = ResultCache(str(tmp_path / "cache"))
        configs = [tiny(seed=s) for s in (1, 2, 3, 4)]
        first_log = RunLog()
        first = SweepRunner(
            processes=2, timeout=60, retries=0, task=_crash_on_seed_2,
            pool=pool, cache=cache, run_log=first_log,
        ).run(configs)
        assert first[1].failed
        assert len(cache) == 3  # the crash cell was not cached
        second_log = RunLog()
        second = SweepRunner(
            processes=2, timeout=60, retries=0, task=run_one,
            pool=pool, cache=cache, run_log=second_log,
        ).run(configs)
        assert all(not m.failed for m in second)
        assert second_log.progress.cached == 3
        assert second_log.progress.completed == 1
        assert [m.seed for m in second] == [1, 2, 3, 4]


def spy_on_dispatch(runner):
    """Record every dispatch as (worker id, task index, index of the
    running cell the task was queued behind, or None for an idle
    worker)."""
    sent = []
    dispatch = runner._dispatch

    def spy(worker, task):
        behind = worker.current.index if worker.current is not None else None
        sent.append((worker.id, task.index, behind))
        dispatch(worker, task)

    runner._dispatch = spy
    return sent


def assert_log_is_consistent(events, workers):
    """Every ``task_start`` precedes the row that ends that attempt, and
    at no point are more cells started-and-unfinished than there are
    workers (a queued cell is not started until its worker says so)."""
    running = set()
    for event in events:
        kind = event["event"]
        if kind == "task_start":
            assert event["index"] not in running, event
            running.add(event["index"])
            assert len(running) <= workers, (sorted(running), event)
        elif kind in ("task_done", "task_retry", "task_failed"):
            assert event["index"] in running, event
            running.remove(event["index"])
    assert not running


class TestQueueAhead:
    """A worker on short cells holds one more task queued in its pipe.
    Every case runs ``retries=0``, so a queued cell charged for its
    predecessor's fate would come back a placeholder."""

    CELLS = 16

    def sweep(self, tmp_path, task, **kwargs):
        configs = [tiny(seed=s) for s in range(1, self.CELLS + 1)]
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            runner = SweepRunner(
                processes=2, retries=0, task=task, run_log=log, **kwargs
            )
            sent = spy_on_dispatch(runner)
            results = runner.run(configs)
        events = read_runlog(path)
        assert_log_is_consistent(events, workers=2)
        return results, sent, events

    def test_crash_does_not_charge_the_queued_cell(self, tmp_path):
        """The worker dies mid-cell with a task queued behind it: the
        running cell is the only placeholder, the queued one runs
        elsewhere on its first attempt."""
        results, sent, events = self.sweep(
            tmp_path, scripted(nap=0.01, bad_seed=5, fate="crash"), timeout=60
        )
        assert [m.failed for m in results] == [m.seed == 5 for m in results]
        assert "exit code 17" in results[4].error
        behind_the_crash = [index for _, index, behind in sent if behind == 4]
        assert behind_the_crash  # something was queued there
        done = {e["index"]: e for e in events if e["event"] == "task_done"}
        assert all(done[index]["attempt"] == 0 for index in behind_the_crash)
        assert not any(e["event"] == "task_retry" for e in events)

    def test_deadline_does_not_charge_the_queued_cell(self, tmp_path):
        results, sent, events = self.sweep(
            tmp_path, scripted(nap=0.01, bad_seed=5), timeout=1.5
        )
        assert [m.failed for m in results] == [m.seed == 5 for m in results]
        assert "timeout after 1.5" in results[4].error
        behind_the_hang = [index for _, index, behind in sent if behind == 4]
        assert behind_the_hang
        done = {e["index"]: e for e in events if e["event"] == "task_done"}
        assert all(done[index]["attempt"] == 0 for index in behind_the_hang)
        respawns = [e for e in events if e["event"] == "worker_respawn"]
        assert len(respawns) == 1
        assert respawns[0]["index"] == 4

    def test_two_cells_on_two_workers_run_side_by_side(self, tmp_path):
        """Breadth first, and nothing queued before an observation."""
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            run_many(
                [tiny(seed=1), tiny(seed=2)], processes=2, timeout=60, run_log=log
            )
        events = read_runlog(path)
        done = [e for e in events if e["event"] == "task_done"]
        assert len({e["worker"] for e in done}) == 2
        assert_log_is_consistent(events, workers=2)

    def test_nothing_queues_behind_a_long_cell(self, tmp_path):
        """One cell the model expects to run for minutes, 24 short ones:
        the other worker drains the short ones while the long one hangs
        to its deadline, and none waits behind it."""
        long_cell = tiny(seed=99, n_clients=2, duration=5000.0)
        short = [tiny(seed=s) for s in range(1, 25)]
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            runner = SweepRunner(
                processes=2, timeout=2.0, retries=0,
                task=scripted(nap=0.01, bad_seed=99), run_log=log,
            )
            sent = spy_on_dispatch(runner)
            results = runner.run([long_cell] + short)
        assert results[0].failed and not any(m.failed for m in results[1:])
        assert sent[0][1:] == (0, None)  # longest first, to an idle worker
        assert not [index for _, index, behind in sent if behind == 0]
        # ... while short cells did get company.
        assert [index for _, index, behind in sent if behind is not None]
        events = read_runlog(path)
        assert_log_is_consistent(events, workers=2)
        # The same from the log alone: the long cell's worker started
        # nothing else, and every short cell was done before it failed.
        starts = [e for e in events if e["event"] == "task_start"]
        assert [e["index"] for e in starts if e["worker"] == sent[0][0]] == [0]
        kinds = [e["event"] for e in events if e["event"].startswith("task_")]
        assert kinds[-1] == "task_failed"

    @EVERY_POOL
    def test_keyboard_interrupt_with_queued_tasks(self, pool, tmp_path):
        """SIGINT while a worker holds a queued task behind the cell
        that is running: still no orphan process."""
        proc = run_interrupt_driver(
            tmp_path, pool, cells=self.CELLS, interrupt_seed=9, wait=0.3
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr)


#: The SIGKILL driver: a 2-worker sweep of napping cells whose parent
#: prints its workers' pids at the first ``task_start`` and dies on the
#: spot, with no chance to stop anyone.
_SIGKILL_DRIVER = (
    "import multiprocessing, os, signal, time\n"
    "from repro.experiments.config import paper_config\n"
    "from repro.experiments.results import ScenarioMetrics\n"
    "from repro.experiments.runlog import RunLog\n"
    "from repro.experiments.runner import SweepRunner\n"
    "\n"
    "def nap(config):\n"
    "    time.sleep(0.2)\n"
    "    return ScenarioMetrics.failure(config, '')\n"
    "\n"
    "class DieAtFirstStart(RunLog):\n"
    "    def task_start(self, *args, **kwargs):\n"
    "        pids = [p.pid for p in multiprocessing.active_children()]\n"
    "        print(*pids, flush=True)\n"
    "        os.kill(os.getpid(), signal.SIGKILL)\n"
    "\n"
    "configs = [paper_config(n_clients=2, duration=3.0, seed=s)\n"
    "           for s in range(1, 9)]\n"
    "SweepRunner(processes=2, task=nap, start_method='fork',\n"
    "            run_log=DieAtFirstStart()).run(configs)\n"
)


def _process_is_gone(pid):
    """Exited -- reaped or not: in a container nothing may reap an
    orphan, and a zombie runs nothing and holds nothing."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] == "Z"
    except FileNotFoundError:
        return True
    except OSError:  # no /proc here: alive is all os.kill can say
        return False


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="workers inherit the parent's pipe ends only under fork",
)
def test_workers_do_not_outlive_a_sigkilled_parent(tmp_path):
    """A forked worker holds a copy of the parent's end of its own pipe
    (and of every earlier worker's); unless it closes them it never
    sees EOF, and lingers in ``recv`` after the parent is killed."""
    driver = tmp_path / "driver.py"
    driver.write_text(_SIGKILL_DRIVER)
    # Not communicate(): a lingering worker keeps stdout open, so
    # waiting for EOF is waiting for the bug.
    proc = subprocess.Popen(
        [sys.executable, str(driver)],
        env=driver_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    pids = [int(pid) for pid in proc.stdout.readline().split()]
    try:
        assert proc.wait(timeout=30) == -signal.SIGKILL
        assert len(pids) == 2
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not all(map(_process_is_gone, pids)):
            time.sleep(0.05)
        assert [pid for pid in pids if not _process_is_gone(pid)] == []
    finally:
        proc.stdout.close()
        for pid in pids:
            if not _process_is_gone(pid):
                os.kill(pid, signal.SIGKILL)


class TestPerCellCost:
    def test_sweep_bookkeeping_does_not_grow_with_the_grid(self, tmp_path, monkeypatch):
        """What the runner does per cell besides the cell is constant:
        no directory listing or cache length (each is a pass over every
        entry), and one heap push and one pop per cell launched.  Counts,
        not clocks; the cells are free so only the runner runs."""
        calls = collections.Counter()

        def counted(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counted(os, "listdir")
        counted(ResultCache, "__len__")
        counted(heapq, "heappush")
        counted(heapq, "heappop")
        protocols = ("reno", "vegas", "udp")
        for cells in (64, 256):
            configs = [
                tiny(seed=s, protocol=protocols[s % 3], n_clients=2 + s % 4)
                for s in range(cells)
            ]
            cache = ResultCache(str(tmp_path / f"cache{cells}"))
            for expected_hits in (0, cells):  # cold, then warm
                calls.clear()
                log = RunLog()
                runner = SweepRunner(
                    processes=2, retries=0, cache=cache, task=_instant, run_log=log
                )
                results = runner.run(configs)
                assert not any(m.failed for m in results)
                assert log.progress.cached == expected_hits
                assert calls["listdir"] == 0 and calls["__len__"] == 0, calls
                launched = cells - expected_hits
                assert calls["heappush"] == calls["heappop"] == launched, calls
            assert len(cache) == cells


class TestWorkerSideCaching:
    def test_parent_never_writes_the_cache(self, tmp_path):
        """Under the pool with a cache, workers persist results
        themselves; the parent takes them off the pipe and writes
        nothing."""
        cache = ResultCache(str(tmp_path))
        runner = SweepRunner(processes=2, timeout=60, pool="persistent", cache=cache)

        def forbidden_put(config, metrics):
            raise AssertionError("parent serialized a result into the cache")

        runner.cache.put = forbidden_put
        configs = [tiny(seed=s) for s in (1, 2, 3)]
        results = runner.run(configs)
        assert all(not m.failed for m in results)
        assert len(cache) == 3  # written by the workers

    def test_cached_and_piped_results_are_identical(self, tmp_path):
        """A result recovered from a worker-side cache write equals the
        same cell shipped over the pipe (no cache) -- and the cold pass
        that wrote the entries, the warm pass that read them back and
        the in-process run all return that cell too, to the last digit
        of every physics field."""
        configs = [tiny(seed=s) for s in (1, 2)]
        piped = run_many(configs, processes=2, timeout=60, pool="persistent")
        cached = run_many(
            configs, processes=2, timeout=60, pool="persistent",
            cache=str(tmp_path),
        )
        assert piped == cached
        log = RunLog()
        warm = run_many(
            configs, processes=2, timeout=60, pool="persistent",
            cache=str(tmp_path), run_log=log,
        )
        assert log.progress.cached == len(configs)
        in_process = run_many(configs, processes=1)
        assert cached == warm == in_process

        def physics(metrics):
            return [
                (spec.name, repr(getattr(metrics, spec.name)))
                for spec in fields(metrics)
                if spec.name not in ScenarioMetrics._WALL_CLOCK_FIELDS
            ]

        for others in (cached, warm, in_process):
            assert [physics(m) for m in others] == [physics(m) for m in piped]


class TestDifferentialMatrix:
    def grid(self):
        return [
            tiny(protocol=protocol, seed=seed, n_clients=n)
            for protocol in ("udp", "reno")
            for seed, n in ((1, 2), (2, 3))
        ]

    def test_executors_and_schedules_agree(self):
        """In-process and pooled produce byte-identical metrics per
        cell."""
        configs = self.grid()
        reference = run_many(configs, processes=1)
        for pool in POOLS:
            metrics = run_many(configs, processes=2, timeout=120, pool=pool)
            assert metrics == reference, f"{pool} diverged from in-process"

    def test_round_trip_and_digests(self):
        """Results survive a from_dict round-trip byte-equal, and every
        cell's config digest is stable."""
        configs = self.grid()
        results = run_many(configs, processes=2, timeout=120, pool="persistent")
        for config, metrics in zip(configs, results):
            rebuilt = ScenarioMetrics.from_dict(metrics.as_dict())
            assert rebuilt == metrics
            assert config.config_digest()  # digest is stable and present
        digests = [c.config_digest() for c in configs]
        assert digests == [c.config_digest() for c in self.grid()]


class TestValidationAndKnobs:
    def test_runner_rejects_unknown_pool_and_schedule(self):
        assert POOLS == ("persistent",)
        for pool in ("threads", "per-task"):
            with pytest.raises(ValueError, match="persistent"):
                SweepRunner(pool=pool)
        with pytest.raises(TypeError):
            SweepRunner(heartbeat=0)  # no liveness-beat parameter

    def test_sweep_end_reports_utilization(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            run_many(
                [tiny(seed=s) for s in (1, 2)],
                processes=2, timeout=60, pool="persistent", run_log=log,
            )
        events = read_runlog(path)
        end = [e for e in events if e["event"] == "sweep_end"][-1]
        assert end["makespan"] > 0
        assert 0 <= end["utilization"] <= 1.5  # elapsed can overlap slightly
        summary = summarize_runlog(events)
        assert summary["completed"] == 2
        assert summary["pool"] == "persistent"
        assert summary["workers"] == 2
        assert summary["per_worker"]

    def test_utilization_divides_by_the_pool_that_ran(self, tmp_path):
        """Three cells, two of them cached, two processes asked for: one
        worker spawns, ``sweep_start`` says so, and the sweep's
        utilization is its busy time over its makespan on that worker."""
        configs = [tiny(seed=s) for s in (1, 2, 3)]
        cache = str(tmp_path / "cache")
        run_many(configs[:2], processes=1, cache=cache)
        path = str(tmp_path / "run.jsonl")
        for processes, timeout in ((2, 60), (1, None)):  # pool, then in process
            with RunLog(path) as log:
                run_many(
                    configs, processes=processes, timeout=timeout,
                    cache=cache if timeout else None, run_log=log,
                )
        first, second = [e for e in read_runlog(path) if e["event"] == "sweep_start"]
        assert first["workers"] == 1 and second["workers"] == 1
        events = read_runlog(path)
        assert [e["event"] for e in events].count("worker_spawn") == 1
        for end in (e for e in events if e["event"] == "sweep_end"):
            assert end["utilization"] == pytest.approx(
                end["busy"] / end["makespan"], abs=1e-3
            )
        # Every cell a hit: no pool runs and no utilization is claimed.
        with RunLog(path) as log:
            run_many(configs, processes=2, timeout=60, cache=cache, run_log=log)
        start, *_, end = read_runlog(path)[-5:]
        assert start["event"] == "sweep_start" and start["workers"] == 0
        assert "utilization" not in end

    def test_live_progress_is_the_fold_of_the_file(self, tmp_path, monkeypatch):
        """One fold: after a pooled sweep with a cache hit and a retry,
        the live counters and a fold of the written log agree on every
        key of the summary."""
        monkeypatch.setenv(
            "REPRO_TEST_POOL_SENTINEL", str(tmp_path / "sentinel")
        )
        configs = [tiny(seed=s) for s in (1, 2, 3)]
        cache = str(tmp_path / "cache")
        run_many(configs[:1], processes=1, cache=cache)
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            SweepRunner(
                processes=2, timeout=60, retries=1, backoff=0.02, cache=cache,
                task=_flaky_once, run_log=log,
            ).run(configs)
        live = log.progress.summary()
        read = summarize_runlog(read_runlog(path))
        assert (live["cached"], live["retried"], live["completed"]) == (1, 1, 2)
        assert live.keys() == read.keys()
        for key in live:  # via JSON: NaN means equal NaN there
            assert json.dumps(live[key], sort_keys=True) == json.dumps(
                read[key], sort_keys=True
            ), key

    def test_runlog_from_an_older_checkout_still_reads(self, tmp_path, capsys):
        """Version skew: a log written by the last checkout that had the
        one-process-per-attempt executor (``"pool": "per-task"``, no
        worker ids, no spawn events) still reads, summarizes and
        renders."""
        path = tmp_path / "old.jsonl"
        path.write_text(_PER_TASK_ERA_RUNLOG)
        summary = summarize_runlog(read_runlog(str(path)))
        assert summary["pool"] == "per-task"
        assert summary["completed"] == 1
        assert cli_main(["sweeplog", str(path)]) == 0
        assert "pool=per-task" in capsys.readouterr().out


_PER_TASK_ERA_RUNLOG = """\
{"cache_dir": null, "event": "sweep_start", "pool": "per-task", "retries": 1, "schedule": "cost", "t": 1790771121.751471, "timeout": 60, "total": 1, "workers": 1}
{"attempt": 0, "backend": "packet", "digest": "60d736bbba29a85c1eb6e129a915deaab9ff0fbe7c7d6e5ee785eebb9d72c93f", "event": "task_start", "index": 0, "label": "Reno", "t": 1790771121.7519014}
{"attempt": 0, "backend": "packet", "digest": "60d736bbba29a85c1eb6e129a915deaab9ff0fbe7c7d6e5ee785eebb9d72c93f", "elapsed": 0.013992221996886656, "event": "task_done", "events_executed": 457, "index": 0, "lane": "cost", "peak_rss_kb": 27872.0, "sim_wall_ratio": 700.609, "t": 1790771121.7676232}
{"busy": 0.013992, "cached": 0, "completed": 1, "event": "sweep_end", "failed": 0, "makespan": 0.016284, "respawned": 0, "retried": 0, "t": 1790771121.7677598, "total": 1, "utilization": 0.8593}
"""
