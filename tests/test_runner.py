"""Tests for the fault-tolerant sweep runner: timeouts, retries, crash
isolation, resume-from-cache after a mid-grid kill, and telemetry."""

import multiprocessing
import os
import subprocess
import sys
import time
import types

import pytest

from repro.experiments import runner as runner_module
from repro.experiments.cache import ResultCache
from repro.experiments.config import paper_config
from repro.experiments.replication import replicate
from repro.experiments.runlog import Progress, RunLog, read_runlog, summarize_runlog
from repro.experiments.runner import SweepRunner, pick_start_method, run_one
from repro.experiments.sweep import run_many

pytestmark = pytest.mark.skipif(
    sys.platform == "win32",
    reason="the misbehaving task stubs rely on POSIX process semantics",
)


def tiny(**overrides):
    defaults = dict(n_clients=2, duration=3.0, seed=1)
    defaults.update(overrides)
    return paper_config(**defaults)


# ----------------------------------------------------------------------
# Deliberately misbehaving task stubs (module level: picklable by fork)
# ----------------------------------------------------------------------
def _hang_forever(config):
    time.sleep(300)


def _crash_on_seed_2(config):
    if config.seed == 2:
        os._exit(17)
    return run_one(config)


def _raise_always(config):
    raise RuntimeError("scripted failure")


def _flaky_once(config):
    """Fails the first time it is ever called, then behaves."""
    sentinel = os.environ["REPRO_TEST_FLAKY_SENTINEL"]
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        raise RuntimeError("first attempt fails")
    return run_one(config)


class TestTimeoutRetryPlaceholder:
    def test_hanging_worker_times_out_and_is_recorded(self):
        runner = SweepRunner(
            processes=1, timeout=0.3, retries=1, task=_hang_forever
        )
        start = time.monotonic()
        results = runner.run([tiny()])
        elapsed = time.monotonic() - start
        assert results[0].failed
        assert "timeout" in results[0].error
        assert runner.log.progress.failed == 1
        assert runner.log.progress.retried == 1
        assert elapsed < 30  # two 0.3 s attempts, not the 300 s sleep

    def test_crash_isolated_rest_of_grid_completes(self):
        configs = [tiny(seed=1), tiny(seed=2), tiny(seed=3)]
        runner = SweepRunner(
            processes=2, timeout=60, retries=0, task=_crash_on_seed_2
        )
        results = runner.run(configs)
        assert [m.seed for m in results] == [1, 2, 3]
        assert not results[0].failed and not results[2].failed
        assert results[1].failed
        assert "exit code 17" in results[1].error

    def test_retry_then_success(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_TEST_FLAKY_SENTINEL", str(tmp_path / "sentinel")
        )
        runner = SweepRunner(
            processes=1, timeout=60, retries=2, task=_flaky_once
        )
        results = runner.run([tiny()])
        assert not results[0].failed
        assert runner.log.progress.retried == 1
        assert runner.log.progress.completed == 1

    @pytest.mark.parametrize(
        "timeout", [None, 60], ids=["in_process", "one_worker_pool"]
    )
    def test_retry_never_sleeps(self, timeout, tmp_path, monkeypatch):
        """A failed cell runs again as soon as its failure is seen: the
        runner's clock may be read but never slept on."""

        def refuse(seconds):
            raise AssertionError(f"the runner slept {seconds!r} s")

        monkeypatch.setattr(
            runner_module,
            "time",
            types.SimpleNamespace(monotonic=time.monotonic, sleep=refuse),
        )
        monkeypatch.setenv(
            "REPRO_TEST_FLAKY_SENTINEL", str(tmp_path / "sentinel")
        )
        log = RunLog()
        runner = SweepRunner(
            processes=1, timeout=timeout, retries=1, task=_flaky_once,
            run_log=log,
        )
        (result,) = runner.run([tiny()])
        assert not result.failed
        assert (log.progress.retried, log.progress.completed) == (1, 1)

    def test_in_process_exception_becomes_placeholder(self):
        runner = SweepRunner(processes=1, retries=1, task=_raise_always)
        results = runner.run([tiny()])
        assert results[0].failed
        assert "scripted failure" in results[0].error


class TestCachingAndResume:
    def test_second_run_is_all_cache_hits(self, tmp_path):
        configs = [tiny(seed=1), tiny(seed=2)]
        cache = ResultCache(str(tmp_path / "cache"))
        first = run_many(configs, processes=1, cache=cache)
        log = RunLog()
        second = run_many(configs, processes=1, cache=cache, run_log=log)
        assert first == second
        assert log.progress.cached == 2
        assert log.progress.completed == 0

    def test_failed_cells_are_not_cached(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        runner = SweepRunner(
            processes=1, retries=0, task=_raise_always, cache=cache
        )
        results = runner.run([tiny()])
        assert results[0].failed
        assert len(cache) == 0  # next run re-attempts instead of resuming a failure

    def test_kill_mid_grid_then_resume(self, tmp_path):
        """Kill the sweep process mid-grid; a --resume-style re-run must
        finish using cache hits for the already-completed cells."""
        cache_dir = tmp_path / "cache"
        driver = tmp_path / "driver.py"
        driver.write_text(
            "import os, sys\n"
            "from repro.experiments.config import paper_config\n"
            "from repro.experiments.runner import SweepRunner, run_one\n"
            "\n"
            "def die_mid_grid(config):\n"
            "    if config.seed == 3:\n"
            "        os._exit(9)  # hard kill: no cleanup, mid-sweep\n"
            "    return run_one(config)\n"
            "\n"
            "configs = [paper_config(n_clients=2, duration=3.0, seed=s)\n"
            "           for s in (1, 2, 3, 4)]\n"
            "SweepRunner(processes=1, cache=sys.argv[1],\n"
            "            task=die_mid_grid).run(configs)\n"
        )
        env = dict(os.environ)
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), os.pardir, "src")
        )
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(driver), str(cache_dir)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 9, proc.stderr
        cache = ResultCache(str(cache_dir))
        assert len(cache) == 2  # seeds 1 and 2 finished before the kill

        configs = [tiny(seed=s) for s in (1, 2, 3, 4)]
        log = RunLog()
        results = run_many(configs, processes=1, cache=cache, run_log=log)
        assert all(not m.failed for m in results)
        assert [m.seed for m in results] == [1, 2, 3, 4]
        assert log.progress.cached == 2
        assert log.progress.completed == 2

    def test_duplicate_cells_coalesce_at_launch(self, tmp_path):
        config = tiny()
        log = RunLog()
        results = run_many(
            [config, config], processes=1, cache=str(tmp_path), run_log=log
        )
        assert results[0] == results[1]
        assert log.progress.completed + log.progress.cached == 2
        assert log.progress.cached >= 1


class TestTelemetry:
    def test_runlog_event_stream(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            run_many([tiny()], processes=1, cache=str(tmp_path / "c"), run_log=log)
        events = [e["event"] for e in read_runlog(path)]
        assert events[0] == "sweep_start"
        assert events[-1] == "sweep_end"
        assert "task_start" in events
        assert "task_done" in events

    @pytest.mark.parametrize("processes", [1, 2])
    def test_sweep_start_names_a_fresh_cache_directory(self, tmp_path, processes):
        """An empty cache is still a cache.  ``ResultCache`` has a
        ``__len__``, so a runner that tests its truth logs ``null`` for
        the first sweep into a new directory and the path for the next."""
        cache_dir = str(tmp_path / "fresh")
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            run_many([tiny()], processes=processes, cache=cache_dir, run_log=log)
        start = read_runlog(path)[0]
        assert start["event"] == "sweep_start"
        assert start["cache_dir"] == cache_dir

    def test_runlog_survives_torn_final_line(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLog(str(path)) as log:
            log.sweep_start(total=1)
        with open(path, "a") as handle:
            handle.write('{"event": "task_do')  # killed mid-write
        events = read_runlog(str(path))
        assert [e["event"] for e in events] == ["sweep_start"]

    def test_runlog_skips_lines_that_are_not_objects(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with RunLog(str(path)) as log:
            log.sweep_start(total=1)
        with open(path, "a") as handle:
            handle.write("null\n[1, 2]\n3\n")
        events = read_runlog(str(path))
        assert [e["event"] for e in events] == ["sweep_start"]
        assert summarize_runlog(events)["total"] == 1

    def test_progress_render(self):
        progress = Progress(total=40, completed=9, cached=3, failed=0, retried=2)
        line = progress.render()
        assert "12/40" in line
        assert "ok=9" in line
        assert "cached=3" in line

    def test_echo_stream_receives_updates(self):
        import io

        stream = io.StringIO()
        log = RunLog(echo=stream)
        run_many([tiny()], processes=1, run_log=log)
        assert "[1/1]" in stream.getvalue()


class TestStartMethod:
    def test_default_is_available(self):
        assert pick_start_method() in multiprocessing.get_all_start_methods()

    def test_fork_preferred_when_available(self):
        if "fork" in multiprocessing.get_all_start_methods():
            assert pick_start_method() == "fork"

    def test_spawn_fallback_when_fork_missing(self, monkeypatch):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert pick_start_method() == "spawn"

    def test_invalid_preferred_rejected(self):
        with pytest.raises(ValueError):
            pick_start_method("no-such-method")

    @pytest.mark.skipif(
        "spawn" not in multiprocessing.get_all_start_methods(),
        reason="no spawn start method on this platform",
    )
    def test_spawn_pool_matches_in_process(self):
        """The path macOS and Windows take: workers start from a fresh
        import, so the task and every config travel by pickle."""
        configs = [tiny(seed=s, n_clients=2 + s) for s in (1, 2, 3)]
        results = SweepRunner(
            processes=2, start_method="spawn", retries=0
        ).run(configs)
        assert results == run_many(configs, processes=1)


class TestIntegration:
    def test_run_many_parallel_matches_serial_with_runner(self):
        configs = [tiny(protocol="udp"), tiny(protocol="reno")]
        assert run_many(configs, processes=1) == run_many(configs, processes=2)

    def test_replicate_passes_runner_kwargs(self, tmp_path):
        config = tiny(protocol="udp")
        first = replicate(config, n_replicas=2, processes=1, cache=str(tmp_path))
        log = RunLog()
        second = replicate(
            config, n_replicas=2, processes=1, cache=str(tmp_path), run_log=log
        )
        assert log.progress.cached == 2
        assert first.summaries["cov"].mean == second.summaries["cov"].mean

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            SweepRunner(retries=-1)
        with pytest.raises(ValueError):
            SweepRunner(timeout=0)
