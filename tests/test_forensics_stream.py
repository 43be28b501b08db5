"""Streaming forensics, sweep-wide burstiness columns, live dashboard.

The load-bearing guarantee under test: every forensics run goes through
the stream, and what it emits is what the offline pipeline of
``tests/forensics_reference.py`` would conclude.  A run streamed to a
file writes, at any checkpoint, a **byte-identical prefix** of that
pipeline's serialization, and the final file is the whole of it --
while keeping bounded state (windows and episodes are dropped once
flushed).  A run with no file keeps the same records, in the same
order, and its report equals the reference report.  On top of that:
the sweep-grade ``forensic_*`` columns through metrics, the run log and
the figures; and the ``sweeplog --follow`` dashboard.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math
import random
from pathlib import Path

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.config import paper_config
from repro.experiments.figures import (
    FORENSICS_PROTOCOLS,
    build_figure,
    figure2_cov,
    forensics_figure,
    run_protocol_sweep,
)
from repro.experiments.results import ScenarioMetrics
from repro.experiments.runlog import (
    RunLog,
    RunLogTail,
    follow_runlog,
    read_runlog,
    render_summary,
    summarize_runlog,
)
from repro.experiments.scenario import Scenario, run_scenario
from repro.experiments.sweep import run_many
from repro.forensics.stream import encode_record
from repro.forensics.sync import LossSyncDetector
from tests import forensics_reference as reference

BASE = dict(n_clients=40, duration=16.0, seed=7)
GOLDEN = Path(__file__).parent / "goldens" / "forensics" / "forensics_reno_fifo_n40.json"

#: Every summary scalar a report carries (the ``forensic_*`` columns
#: are read from these).
SUMMARY = (
    "n_bursts",
    "n_sync_events",
    "n_sync_linked",
    "precision",
    "burst_time_fraction",
    "burst_rate",
    "burst_duration_mean",
    "burst_drops",
    "sync_linked_fraction",
    "top_flow",
    "top_flow_share",
)


def summary(report) -> str:
    """The summary scalars as exact JSON text (NaN-safe equality)."""
    return json.dumps([getattr(report, name) for name in SUMMARY])


def stream_text(report) -> str:
    """The file a streamed run must write, from a reference report."""
    return "".join(line + "\n" for line in reference.offline_stream_lines(report))


@pytest.fixture(scope="module")
def offline_run():
    """The seeded droptail dumbbell with no stream file, and the
    reference report of the same run."""
    return reference.run_with_reference(paper_config(**BASE, forensics=True))


@pytest.fixture(scope="module")
def offline_result(offline_run):
    return offline_run[0]


@pytest.fixture(scope="module")
def offline_text(offline_run):
    return stream_text(offline_run[1])


@pytest.fixture(scope="module")
def streamed():
    """The same scenario streamed: (text, stream report, scenario)."""
    scenario = Scenario(paper_config(**BASE, forensics=True))
    sink = io.StringIO()
    scenario.attach_forensics_stream(sink, interval=1.0)
    result = scenario.run()
    return sink.getvalue(), result.forensics, scenario


# ----------------------------------------------------------------------
# Prefix consistency: the tentpole differential
# ----------------------------------------------------------------------
class TestPrefixConsistency:
    def test_final_stream_is_byte_identical_to_offline(
        self, offline_text, streamed
    ):
        text, _, _ = streamed
        assert text == offline_text

    def test_midrun_stream_is_a_prefix_of_offline(self, offline_text):
        scenario = Scenario(paper_config(**BASE, forensics=True))
        sink = io.StringIO()
        scenario.attach_forensics_stream(sink, interval=1.0)
        scenario.sim.run(until=8.0)
        midway = sink.getvalue()
        offline = offline_text
        # The checkpoint must have flushed real content by mid-run, all
        # of it an exact byte prefix of the offline emission.
        assert midway
        assert len(midway) < len(offline)
        assert offline.startswith(midway)
        assert any('"type": "burst"' in line for line in midway.splitlines())
        # Finishing the run completes the identical file.
        scenario.run()
        assert sink.getvalue() == offline

    def test_summary_scalars_match_offline_exactly(
        self, offline_result, streamed
    ):
        _, stream_report, _ = streamed
        offline = offline_result.forensics
        assert stream_report.n_bursts == offline.n_bursts
        assert stream_report.n_sync_events == offline.n_sync_events
        assert stream_report.n_sync_linked == offline.n_sync_linked
        assert stream_report.records_written > 0
        # Float summaries fold in emission order, so they must be
        # bit-identical, not approximately equal.
        for name in (
            "precision",
            "burst_time_fraction",
            "burst_rate",
            "burst_duration_mean",
            "sync_linked_fraction",
            "top_flow_share",
        ):
            assert getattr(stream_report, name) == getattr(offline, name), name
        assert stream_report.burst_drops == offline.burst_drops
        assert stream_report.top_flow == offline.top_flow

    def test_streaming_keeps_bounded_state(self, streamed):
        _, _, scenario = streamed
        probe = scenario.forensics_probe
        # Every window was flushed and dropped; no episode backlog.
        assert probe.exact.windows() == []
        assert probe.sketch.windows() == []
        assert probe.bursts.episodes == []

    def test_streaming_does_not_change_physics(self, offline_result, streamed):
        _, _, scenario = streamed
        streamed_metrics = ScenarioMetrics.from_result(scenario._collect())
        offline_metrics = ScenarioMetrics.from_result(offline_result)
        # NaN-tolerant dataclass equality covers every simulated
        # outcome, including perf_events_executed.
        assert streamed_metrics == offline_metrics

    def test_stream_requires_forensics_and_attaches_once(self):
        scenario = Scenario(paper_config(n_clients=4, duration=1.0))
        with pytest.raises(ValueError, match="forensics"):
            scenario.attach_forensics_stream(io.StringIO(), interval=1.0)
        scenario = Scenario(
            paper_config(n_clients=4, duration=1.0, forensics=True)
        )
        scenario.attach_forensics_stream(io.StringIO(), interval=1.0)
        with pytest.raises(RuntimeError, match="already"):
            scenario.attach_forensics_stream(io.StringIO(), interval=1.0)

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan")])
    def test_stream_interval_must_be_positive(self, interval):
        scenario = Scenario(paper_config(n_clients=4, duration=1.0, forensics=True))
        with pytest.raises(ValueError, match="interval must be positive"):
            scenario.attach_forensics_stream(io.StringIO(), interval)


# ----------------------------------------------------------------------
# Incremental sync clustering: differential vs the reference's one pass
# over every cut.  (The class keeps the name of the clusterer that has
# since merged into the detector, because test ids are tracked.)
# ----------------------------------------------------------------------
class TestIncrementalClusterer:
    def _random_cuts(self, rng, n_flows):
        t = 0.0
        cuts = []
        for _ in range(rng.randrange(5, 60)):
            t += rng.expovariate(2.0)
            cuts.append((round(t, 4), rng.randrange(n_flows)))
        return cuts

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_batch_finalize(self, seed):
        rng = random.Random(seed)
        n_flows, window = 12, 0.4
        cuts = self._random_cuts(rng, n_flows)

        batch = reference.LossSyncDetector(n_flows, window, fraction=0.25)
        for t, flow in cuts:
            batch.on_loss(flow, t)
        expected = batch.finalize()

        online = LossSyncDetector(n_flows, window, fraction=0.25)
        committed = []
        safe = 0.0
        for t, flow in cuts:
            online.on_loss(flow, t)
            if rng.random() < 0.3:
                safe = max(safe, t - rng.uniform(0.0, 3.0 * window))
                committed.extend(online.commit(safe))
        committed.extend(online.commit(math.inf))
        assert committed == expected
        assert online.min_buffered_time == math.inf

    def test_commit_is_conservative_before_safe_horizon(self):
        online = LossSyncDetector(8, 1.0, fraction=0.25)
        for flow in range(4):
            online.on_loss(flow, 5.0 + 0.1 * flow)
        assert online.min_buffered_time == 5.0
        # Not final until safe passes t_last + 2*window.
        assert online.commit(7.0) == []
        events = online.commit(7.4)
        assert len(events) == 1
        assert events[0].n_flows == 4


# ----------------------------------------------------------------------
# The report against the offline reference pipeline
# ----------------------------------------------------------------------
def _random_cells():
    """Eight seeded (seed, clients) draws, each behind droptail and RED."""
    rng = random.Random(2026)
    draws = [(rng.randrange(1, 10_000), rng.randint(20, 60)) for _ in range(8)]
    return [(seed, n, queue) for seed, n in draws for queue in ("fifo", "red")]


#: None runs with no stream file; a number streams to one at that
#: sim-time checkpoint interval.
INTERVALS = (None, 0.5, 1.0, 5.0)


@pytest.fixture(
    scope="module",
    params=_random_cells(),
    ids=lambda cell: f"seed{cell[0]}-n{cell[1]}-{cell[2]}",
)
def random_cell(request):
    """(config, unstreamed result, reference report) of one 8-s cell."""
    seed, n_clients, queue = request.param
    config = paper_config(
        n_clients=n_clients, duration=8.0, seed=seed, queue=queue, forensics=True
    )
    result, report = reference.run_with_reference(config)
    return config, result, report


class TestReportMatchesReference:
    """Every report is held to ``tests/forensics_reference.py``: with no
    stream file, its records one for one and the whole payload;
    streamed, the file byte for byte and the summary it keeps."""

    @staticmethod
    def assert_unstreamed(report, expected):
        lines = reference.offline_stream_lines(expected)
        assert [encode_record(record) for record in report.records] == lines[1:]
        assert json.dumps(report.as_dict()) == json.dumps(expected.as_dict())
        assert summary(report) == summary(expected)

    @staticmethod
    def assert_streamed(config, interval, expected):
        sinks = []

        def attach(scenario):
            sinks.append(io.StringIO())
            scenario.attach_forensics_stream(sinks[-1], interval)

        report = run_scenario(config, attach).forensics
        text = sinks[-1].getvalue()
        assert text == stream_text(expected)
        assert summary(report) == summary(expected)
        payload = {
            key: value
            for key, value in expected.as_dict().items()
            if key not in ("bursts", "sync_events")
        }
        payload["streamed_records"] = text.count("\n")
        assert json.dumps(report.as_dict()) == json.dumps(payload)

    @pytest.mark.parametrize(
        "interval", INTERVALS, ids=["unstreamed", "every0.5", "every1", "every5"]
    )
    def test_random_cell(self, random_cell, interval):
        config, result, expected = random_cell
        if interval is None:
            self.assert_unstreamed(result.forensics, expected)
        else:
            self.assert_streamed(config, interval, expected)

    def test_golden_cell(self, offline_run):
        result, expected = offline_run
        self.assert_unstreamed(result.forensics, expected)
        golden = json.loads(GOLDEN.read_text())
        assert json.dumps(expected.as_dict(), sort_keys=True) == json.dumps(
            golden, sort_keys=True
        )


# ----------------------------------------------------------------------
# Sweep-wide forensics columns
# ----------------------------------------------------------------------
class TestSweepColumns:
    def test_metrics_carry_burst_summary(self, offline_result):
        metrics = ScenarioMetrics.from_result(offline_result)
        report = offline_result.forensics
        assert metrics.forensic_burst_rate == report.burst_rate
        assert metrics.forensic_burst_duration_mean == \
            report.burst_duration_mean
        assert metrics.forensic_sync_linked_fraction == \
            report.sync_linked_fraction
        assert 0.0 < metrics.forensic_drop_share <= 1.0
        # Round-trips through the flat-dict form (cache serialization).
        again = ScenarioMetrics.from_dict(metrics.as_dict())
        assert again == metrics

    def test_burst_rate_marks_forensics_presence(self):
        # Without forensics the marker stays NaN ...
        plain = run_scenario(paper_config(n_clients=4, duration=1.0, seed=3))
        assert math.isnan(
            ScenarioMetrics.from_result(plain).forensic_burst_rate
        )
        # ... with forensics it is finite even when nothing bursts.
        quiet = run_scenario(
            paper_config(n_clients=4, duration=1.0, seed=3, forensics=True)
        )
        assert ScenarioMetrics.from_result(quiet).forensic_burst_rate == 0.0

    def test_runner_logs_forensic_extras(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        config = paper_config(n_clients=8, duration=2.0, seed=3, forensics=True)
        run_many([config], processes=1, run_log=RunLog(path=path))
        done = [
            e for e in read_runlog(path) if e.get("event") == "task_done"
        ]
        assert len(done) == 1
        assert "forensic_bursts" in done[0]
        assert "forensic_burst_rate" in done[0]
        # Forensics off -> no forensic keys on the event.
        path2 = str(tmp_path / "run2.jsonl")
        run_many(
            [paper_config(n_clients=8, duration=2.0, seed=3)],
            processes=1,
            run_log=RunLog(path=path2),
        )
        done2 = [
            e for e in read_runlog(path2) if e.get("event") == "task_done"
        ]
        assert "forensic_bursts" not in done2[0]

    def test_forensics_sweep_backfills_stale_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        base = paper_config(n_clients=10, duration=2.0, seed=3)
        protocols = {"reno": ("reno", "fifo")}
        # Seed the cache with a forensics-free run of the same cell
        # (the forensics knobs are digest-excluded, so it's a hit).
        stale_config = base.with_(
            backend="packet", forensics=True, protocol="reno",
            queue="fifo", n_clients=10,
        )
        plain = ScenarioMetrics.from_result(
            run_scenario(stale_config.with_(forensics=False))
        )
        cache.put(stale_config, plain)
        assert math.isnan(plain.forensic_burst_rate)

        sweep = run_protocol_sweep(
            (10,), base.with_(backend="packet", forensics=True), protocols,
            processes=1, cache=cache,
        )
        refreshed = sweep["reno"][0]
        assert math.isfinite(refreshed.forensic_burst_rate)
        # The cache entry was overwritten with the forensic columns.
        assert math.isfinite(cache.get(stale_config).forensic_burst_rate)

    def test_forensics_sweep_refreshes_stale_cache_from_pool_workers(self, tmp_path):
        """The same through ``-j 2``: the worker-side ``cache.put`` is
        what replaces the stale entries."""
        cache = ResultCache(str(tmp_path / "cache"))
        base = paper_config(duration=2.0, seed=3)
        configs = [
            base.with_(backend="packet", forensics=True, n_clients=n)
            for n in (8, 10)
        ]
        for config in configs:
            (plain,) = run_many([config.with_(forensics=False)], processes=1)
            cache.put(config, plain)
            assert config.with_(forensics=False) in cache and config not in cache
        sweep = run_protocol_sweep(
            (8, 10), base.with_(backend="packet", forensics=True),
            {"reno": ("reno", "fifo")}, processes=2, timeout=60, cache=cache,
        )
        for config, refreshed in zip(configs, sweep["reno"]):
            assert not refreshed.failed
            assert math.isfinite(refreshed.forensic_burst_rate)
            assert cache.get(config) == refreshed
            assert math.isfinite(cache.get(config).forensic_burst_rate)


class TestCacheHonoursWhatTheConfigObserves:
    """The forensics knobs are digest-excluded, the ``forensic_*``
    columns are cached: an entry written without forensics used to
    satisfy a ``forensics=True`` lookup with NaN columns, silently,
    for every caller but the forensics sweep's own backfill pass."""

    CONFIG = paper_config(n_clients=10, duration=2.0, seed=3, forensics=True)

    def warmed_plain(self, tmp_path, seeds):
        cache = ResultCache(str(tmp_path / "cache"))
        plain = [self.CONFIG.with_(forensics=False, seed=seed) for seed in seeds]
        warmed = run_many(plain, processes=1, cache=cache)
        assert all(math.isnan(m.forensic_burst_rate) for m in warmed)
        assert len(cache) == len(seeds)
        return cache

    def hits(self, log_path):
        events = [e["event"] for e in read_runlog(log_path)]
        return events.count("cache_hit"), events.count("task_done")

    def test_run_many_reruns_a_cell_cached_without_forensics(self, tmp_path):
        cache = self.warmed_plain(tmp_path, seeds=(3,))
        uncached = run_many([self.CONFIG], processes=1)[0]
        assert math.isfinite(uncached.forensic_burst_rate)
        first_log, second_log = str(tmp_path / "1.jsonl"), str(tmp_path / "2.jsonl")
        with RunLog(first_log) as log:
            (first,) = run_many([self.CONFIG], processes=1, cache=cache, run_log=log)
        assert self.hits(first_log) == (0, 1)
        assert first == uncached
        assert first.forensic_burst_rate == uncached.forensic_burst_rate
        assert first.forensic_bursts == uncached.forensic_bursts
        # The refreshed entry stays: the same call again only reads.
        assert cache.get(self.CONFIG) == first and len(cache) == 1
        with RunLog(second_log) as log:
            (second,) = run_many([self.CONFIG], processes=1, cache=cache, run_log=log)
        assert self.hits(second_log) == (1, 0)
        assert second.forensic_burst_rate == first.forensic_burst_rate

    def test_replicate_reruns_replicas_cached_without_forensics(self, tmp_path):
        from repro.experiments.replication import replicate

        cache = self.warmed_plain(tmp_path, seeds=(3, 4, 5))
        logs = [str(tmp_path / f"{i}.jsonl") for i in (1, 2)]
        results = []
        for path in logs:
            with RunLog(path) as log:
                results.append(
                    replicate(
                        self.CONFIG, n_replicas=3, base_seed=3,
                        cache=cache, run_log=log,
                    )
                )
        assert self.hits(logs[0]) == (0, 3) and self.hits(logs[1]) == (3, 0)
        for result in results:
            assert all(
                math.isfinite(replica.forensic_burst_rate)
                for replica in result.replicas
            )
        assert results[0].replicas == results[1].replicas

    def test_a_plain_config_is_still_served_by_a_forensic_entry(self, tmp_path):
        """The converse stays a hit: equal physics, more columns filled."""
        cache = ResultCache(str(tmp_path / "cache"))
        (observed,) = run_many([self.CONFIG], processes=1, cache=cache)
        path = str(tmp_path / "run.jsonl")
        with RunLog(path) as log:
            (plain,) = run_many(
                [self.CONFIG.with_(forensics=False)], processes=1,
                cache=cache, run_log=log,
            )
        assert self.hits(path) == (1, 0)
        assert plain == observed
        assert plain.forensic_burst_rate == observed.forensic_burst_rate


# ----------------------------------------------------------------------
# The sweep figure: the paper's smoothing claim as a grid
# ----------------------------------------------------------------------
class TestForensicsSweepFigure:
    @staticmethod
    def run_grid(cache):
        base = paper_config(
            duration=16.0, seed=1, buffer_capacity=200, backend="packet",
            forensics=True,
        )
        return run_protocol_sweep(
            (20, 40, 50), base, FORENSICS_PROTOCOLS, processes=1, cache=cache
        )

    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        cache = ResultCache(str(tmp_path_factory.mktemp("forensics-sweep")))
        return cache, self.run_grid(cache)

    def test_droptail_rises_while_red_stays_flat(self, sweep):
        _, data = sweep
        for key in ("reno", "vegas"):
            rates = [m.forensic_burst_rate for m in data[key]]
            assert rates == sorted(rates), key  # nondecreasing in N
            assert rates[-1] > rates[0], key  # and genuinely rising
        for key in ("reno_red", "vegas_red"):
            rates = [m.forensic_burst_rate for m in data[key]]
            assert all(
                later <= earlier
                for earlier, later in zip(rates, rates[1:])
            ), key  # flat or falling
        # RED ends below droptail: the smoothing claim across the grid.
        for droptail, red in (("reno", "reno_red"), ("vegas", "vegas_red")):
            assert data[droptail][-1].forensic_burst_rate > \
                data[red][-1].forensic_burst_rate

    def test_figure_renders_from_cached_results(self, sweep):
        cache, data = sweep
        # Same grid again: every cell must be a cache hit (and still
        # carry the forensic columns a re-render needs).
        again = self.run_grid(cache)
        for key in data:
            assert again[key] == data[key]
        figure = build_figure(forensics_figure("forensic_burst_rate"), again)
        assert len(figure.series) == 4
        for xs, ys in figure.series.values():
            assert xs == [20.0, 40.0, 50.0]
            assert all(math.isfinite(y) for y in ys)
        assert "burst" in figure.render_plot()
        linked = build_figure(
            forensics_figure("forensic_sync_linked_fraction"), again
        )
        assert linked.ylabel == "fraction of bursts sync-linked"
        # The c.o.v. companion renders from the very same sweep data.
        cov = figure2_cov(again)
        assert "Poisson" in cov.series

    def test_unknown_attribute_falls_back_to_its_name(self, sweep):
        _, data = sweep
        figure = build_figure(forensics_figure("loss_percent"), data)
        assert figure.ylabel == "loss_percent"


# ----------------------------------------------------------------------
# Run-log aggregation + the live dashboard
# ----------------------------------------------------------------------
def _forensic_log_events():
    return [
        {"t": 0.0, "event": "sweep_start", "total": 3, "workers": 2,
         "pool": "persistent", "schedule": "cost"},
        {"t": 1.0, "event": "task_done", "index": 0, "digest": "a",
         "label": "reno/fifo N=40", "elapsed": 1.0, "attempt": 1,
         "backend": "packet", "worker": 0, "forensic_bursts": 5,
         "forensic_sync_linked": 4, "forensic_burst_rate": 0.3125,
         "forensic_sync_linked_fraction": 0.8},
        {"t": 2.0, "event": "task_done", "index": 1, "digest": "b",
         "label": "reno/red N=40", "elapsed": 0.5, "attempt": 1,
         "backend": "packet", "worker": 1, "forensic_bursts": 1,
         "forensic_sync_linked": 0, "forensic_burst_rate": 0.0625,
         "forensic_sync_linked_fraction": 0.0},
        {"t": 2.5, "event": "task_done", "index": 2, "digest": "c",
         "label": "udp N=40", "elapsed": 0.4, "attempt": 1,
         "backend": "packet", "worker": 0},
    ]


class TestRunlogForensics:
    def test_summarize_aggregates_forensic_columns(self):
        summary = summarize_runlog(_forensic_log_events())
        forensics = summary["forensics"]
        assert forensics["cells"] == 2  # the udp cell carried none
        assert forensics["bursts"] == 6
        assert forensics["sync_linked"] == 4
        assert forensics["burst_rate_mean"] == pytest.approx(0.1875)
        assert forensics["sync_linked_fraction_mean"] == pytest.approx(0.4)

    def test_render_summary_and_slowest_columns(self):
        text = render_summary(summarize_runlog(_forensic_log_events()))
        assert "forensics: 6 burst(s), 4 sync-linked across 2 cell(s)" in text
        assert "bursts" in text and "sync-linked" in text
        # The cell without forensic columns renders placeholders.
        assert "-" in text

    def test_render_summary_without_forensics_is_unchanged(self):
        events = [
            e for e in _forensic_log_events()
            if "forensic_bursts" not in e
        ]
        assert "forensics:" not in render_summary(summarize_runlog(events))

    def test_task_done_skips_nan_fractions(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        log = RunLog(path=path)
        metrics = dataclasses.replace(
            ScenarioMetrics.failure(paper_config(), ""),
            forensic_bursts=0, forensic_sync_linked=0,
            forensic_burst_rate=0.0, forensic_sync_linked_fraction=float("nan"),
        )
        log.task_done(0, "d", elapsed=1.0, metrics=metrics)
        event = read_runlog(path)[0]
        assert event["forensic_bursts"] == 0
        assert event["forensic_burst_rate"] == 0.0
        assert "forensic_sync_linked_fraction" not in event


class TestFollowDashboard:
    def _write(self, path, events):
        with open(path, "w", encoding="utf-8") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")

    def test_tail_handles_missing_file_and_torn_lines(self, tmp_path):
        tail = RunLogTail(str(tmp_path / "absent.jsonl"))
        assert tail.poll() == []
        path = str(tmp_path / "log.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"event": "task')
        tail = RunLogTail(path)
        assert tail.poll() == []  # torn line buffered, not parsed
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('_done", "index": 0}\n')
        assert tail.poll() == [{"event": "task_done", "index": 0}]

    def test_non_tty_renders_one_line_per_update(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        self._write(path, _forensic_log_events())
        out = io.StringIO()
        updates = follow_runlog(
            path, stream=out, interval=0.0, max_updates=2, tty=False,
            sleep=lambda _: None,
        )
        assert updates == 2
        lines = out.getvalue().splitlines()
        assert len(lines) == 1  # no new events -> no repeat line
        assert "[3/3]" in lines[0]
        assert "bursts=6" in lines[0]
        assert "\x1b[" not in out.getvalue()

    def test_tty_mode_repaints_and_stops_on_sweep_end(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        self._write(path, _forensic_log_events())

        def append_end(_):
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({
                    "t": 3.0, "event": "sweep_end", "completed": 3,
                    "failed": 0, "cached": 0, "retried": 0,
                    "makespan": 3.0, "busy": 1.9, "utilization": 0.32,
                }) + "\n")

        out = io.StringIO()
        updates = follow_runlog(
            path, stream=out, interval=0.0, tty=True, sleep=append_end
        )
        assert updates == 2
        frames = out.getvalue().split("\x1b[H\x1b[2J")
        assert len(frames) == 3  # leading empty split + 2 frames
        assert "sweep 3/3 cells" in frames[1]
        assert "forensics: 6 burst(s)" in frames[1]
        # The final frame is the full post-run summary.
        assert "Sweep execution" in frames[2]

    def test_waiting_frame_when_log_does_not_exist_yet(self, tmp_path):
        out = io.StringIO()
        updates = follow_runlog(
            str(tmp_path / "later.jsonl"), stream=out, interval=0.0,
            max_updates=1, tty=False, sleep=lambda _: None,
        )
        assert updates == 1
        assert "[0/0]" in out.getvalue()
