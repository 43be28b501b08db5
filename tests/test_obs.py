"""Tests for the flight-recorder observability layer (repro.obs)."""

import json
import math

import pytest

from repro.experiments.config import paper_config
from repro.experiments.results import ScenarioMetrics
from repro.experiments.scenario import Scenario, run_scenario
from repro.forensics.probe import ForensicsParams, ForensicsProbe
from repro.net.fq import DRRQueue
from repro.net.packet import PacketFactory
from repro.net.queues import DropTailQueue
from repro.net.red import REDParams, REDQueue
from repro.obs.bundle import ObsBundle
from repro.obs.engineprof import (
    EngineProfiler,
    callback_category,
    peak_rss_kb,
)
from repro.obs.probes import (
    TRACE_CATEGORIES,
    FlowProbe,
    QueueProbe,
    parse_trace_spec,
)
from repro.obs.series import TimeSeries
from repro.sim.engine import Simulator


# ----------------------------------------------------------------------
# Series and the snapshot derived from them
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_series_histogram(self):
        series = TimeSeries("a.s", columns=("x", "y"))
        series.append(0.0, 1, 2)
        series.append(1.0, 3, 4)
        assert series.rows == [(0.0, 1, 2), (1.0, 3, 4)]
        assert series.column("y") == [2, 4]
        assert len(series) == 2

    def test_typed_columns_store_machine_words_and_refuse_the_rest(self):
        series = TimeSeries("a.t", columns=("n", "x"), kinds="dqd")
        series.append(0.5, 3, 1)
        assert series.rows == [(0.5, 3, 1.0)]
        assert [type(v) for v in series.rows[0]] == [float, int, float]
        for bad in ((1.0, "3", 2.0), (1.0, 3, None), (1.0, 3)):
            with pytest.raises((TypeError, ValueError)):
                series.append(*bad)
            assert series.rows == [(0.5, 3, 1.0)]
        with pytest.raises(ValueError, match="kinds"):
            TimeSeries("a.u", columns=("n",), kinds="d")

    def test_category_gating(self):
        probe = FlowProbe(0, ("cwnd",))
        probe.on_cwnd(1.0, 2.0, 64.0)
        probe.on_rtt(1.0, 0.1, 0.1, 0.05)
        probe.on_state(1.0, "timeout")
        assert probe.cwnd.rows == [(1.0, 2.0, 64.0)]
        assert len(probe.rtt) == 0
        assert len(probe.states) == 0
        queue = DropTailQueue(1, name="q")
        queue_probe = QueueProbe(queue, ("drops",))
        factory = PacketFactory()
        for seqno in range(2):
            queue.enqueue(factory.data(0, "a", "b", 1000, seqno=seqno, now=0.0), 0.0)
        assert len(queue_probe.occupancy) == 0
        assert len(queue_probe.drops) == 1

    def test_snapshot_scalars_and_summaries(self):
        probe = FlowProbe(0, ("state",))
        probe.on_state(1.0, "timeout")
        probe.on_state(2.0, "slowstart_exit")
        snap = ObsBundle(categories=("state",), flows={0: probe}).snapshot()
        assert snap == {
            "state.flow.0": {"columns": ("time", "state"), "n_rows": 2},
            "state.transitions.flow.0": 2,
        }


class TestParseTraceSpec:
    def test_comma_list(self):
        assert parse_trace_spec("cwnd,queue") == ("cwnd", "queue")

    def test_all_expands(self):
        assert parse_trace_spec("all") == TRACE_CATEGORIES

    def test_empty(self):
        assert parse_trace_spec("") == ()
        assert parse_trace_spec(None) == ()

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            parse_trace_spec("cwnd,bogus")

    def test_deduplicates_preserving_order(self):
        assert parse_trace_spec("rtt,cwnd,rtt") == ("rtt", "cwnd")


# ----------------------------------------------------------------------
# Engine profiler
# ----------------------------------------------------------------------
class TestEngineProfiler:
    def test_profile_counts_and_categories(self):
        sim = Simulator()
        profiler = sim.attach_profiler(EngineProfiler())

        def tick(remaining):
            if remaining:
                sim.schedule(0.1, tick, remaining - 1)

        sim.schedule(0.0, tick, 9)
        sim.schedule(100.0, tick, 0)  # parked event keeps the heap non-empty
        sim.run()
        profile = profiler.profile()
        assert profile.events_executed == 11
        assert profile.sim_time == pytest.approx(100.0)
        assert profile.wall_time > 0
        assert profile.events_per_sec > 0
        assert profile.max_heap_depth >= 1
        assert [s.category for s in profile.categories] == [
            "TestEngineProfiler.test_profile_counts_and_categories.<locals>.tick"
        ]
        assert profile.categories[0].events == 11

    def test_bound_methods_grouped_by_class_and_name(self):
        class Thing:
            def poke(self):
                pass

        assert callback_category(Thing().poke) == "Thing.poke"
        assert callback_category(Thing().poke) == callback_category(Thing().poke)

    def test_detach_restores_fast_loop(self):
        sim = Simulator()
        profiler = sim.attach_profiler(EngineProfiler())
        sim.schedule(0.0, lambda: None)
        sim.run()
        sim.detach_profiler()
        assert sim.profiler is None
        sim.schedule(0.0, lambda: None)
        sim.run()
        assert profiler.events == 1  # second event not profiled

    def test_render_table_mentions_throughput(self):
        sim = Simulator()
        profiler = sim.attach_profiler(EngineProfiler())
        sim.schedule(0.0, lambda: None)
        sim.run()
        table = profiler.profile().render_table()
        assert "ev/s" in table
        assert "category" in table

    def test_as_dict_round_trips_through_json(self):
        sim = Simulator()
        profiler = sim.attach_profiler(EngineProfiler())
        sim.schedule(0.0, lambda: None)
        sim.run()
        payload = json.loads(json.dumps(profiler.profile().as_dict()))
        assert payload["events_executed"] == 1

    def test_step_is_profiled_too(self):
        sim = Simulator()
        profiler = sim.attach_profiler(EngineProfiler())
        sim.schedule(0.0, lambda: None)
        assert sim.step()
        assert profiler.events == 1


def test_peak_rss_is_positive_here():
    assert peak_rss_kb() > 0


# ----------------------------------------------------------------------
# Flow probes (via a real TCP sender)
# ----------------------------------------------------------------------
class TestFlowProbe:
    def _run(self, **config_overrides):
        overrides = {"n_clients": 2, "duration": 10.0, "seed": 3}
        overrides.update(config_overrides)
        return run_scenario(paper_config(**overrides))

    def test_cwnd_series_recorded(self):
        result = self._run(obs_trace=("cwnd",))
        assert result.obs is not None
        assert result.obs.n_cwnd_samples > 0
        probe = result.obs.flows[0]
        assert probe.cwnd.columns == ("cwnd", "ssthresh")
        # The first sample is the initial window published at attach.
        assert probe.cwnd.rows[0][1] == 1.0

    def test_rtt_series_recorded(self):
        result = self._run(obs_trace=("rtt",))
        probe = result.obs.flows[0]
        assert len(probe.rtt) > 0
        # srtt must be positive once samples arrive.
        assert all(row[2] > 0 for row in probe.rtt.rows)
        # cwnd category is off: that series stored nothing.
        assert len(probe.cwnd) == 0

    def test_state_transitions_on_lossy_run(self):
        result = self._run(
            obs_trace=("state",), n_clients=40, duration=30.0
        )
        assert result.obs.n_state_transitions > 0
        states = {
            row[1]
            for probe in result.obs.flows.values()
            for row in probe.states.rows
        }
        assert states <= {
            "timeout",
            "fast_retransmit",
            "recovery_exit",
            "partial_ack",
            "slowstart_exit",
            "ecn_cut",
        }
        assert states  # at 40 clients something must have happened

    def test_no_obs_config_attaches_nothing(self):
        result = self._run()
        assert result.obs is None
        # perf telemetry is still measured.
        assert result.wall_time > 0
        assert result.peak_rss_kb > 0


# ----------------------------------------------------------------------
# Queue probes
# ----------------------------------------------------------------------
def _snapshot(probe, *categories):
    """The scalar snapshot a bundle holding ``probe`` reports."""
    return ObsBundle(categories=categories, queue=probe).snapshot()


class TestQueueProbe:
    def _packets(self, n):
        factory = PacketFactory()
        return [
            factory.data(0, "a", "b", 1000, seqno=i, now=0.0) for i in range(n)
        ]

    def test_occupancy_follows_queue_length(self):
        queue = DropTailQueue(4, name="q")
        probe = QueueProbe(queue, ("queue", "drops"))
        for i, packet in enumerate(self._packets(3)):
            queue.enqueue(packet, float(i))
        queue.dequeue(3.0)
        lengths = probe.occupancy.column("length")
        assert lengths == [1, 2, 3, 2]
        assert _snapshot(probe, "queue")["queue.max_depth.q"] == 3

    def test_droptail_drop_cause(self):
        queue = DropTailQueue(2, name="q")
        probe = QueueProbe(queue, ("drops",))
        for packet in self._packets(4):
            queue.enqueue(packet, 0.0)
        assert probe.drop_causes == {"tail_overflow": 2}
        assert _snapshot(probe, "drops")["drops.cause.tail_overflow"] == 2

    def test_droptail_drop_rows_identify_overflowed_packets(self):
        # Per-row attribution: the drops series names the exact packets
        # the full buffer refused, each labelled tail_overflow.
        queue = DropTailQueue(2, name="q")
        probe = QueueProbe(queue, ("drops",))
        for packet in self._packets(4):
            queue.enqueue(packet, 1.0)
        assert probe.drops.column("cause") == ["tail_overflow"] * 2
        assert probe.drops.column("seqno") == [2, 3]  # first 2 admitted

    def test_red_early_drop_rows(self):
        # rng always below the drop probability: with avg in the
        # (min_th, max_th) band every arrival takes the probabilistic
        # early-drop path, never the forced or overflow ones.
        class AlwaysBelow:
            def random(self):
                return 0.0

        # weight=1 makes the average track the instantaneous length.
        queue = REDQueue(
            100,
            REDParams(min_th=1.0, max_th=50.0, weight=1.0),
            rng=AlwaysBelow(),
            name="red",
        )
        probe = QueueProbe(queue, ("drops",))
        for packet in self._packets(8):
            queue.enqueue(packet, 1.0)
        assert set(probe.drops.column("cause")) == {"red_early"}
        assert probe.drop_causes == {"red_early": queue.stats.drops}

    def test_red_forced_drop_rows(self):
        # rng never below the probability: early drops cannot fire, so
        # once the average reaches max_th (buffer far from full) every
        # refusal is a forced drop.
        class NeverBelow:
            def random(self):
                return 1.0

        queue = REDQueue(
            100,
            REDParams(min_th=1.0, max_th=3.0, weight=1.0),
            rng=NeverBelow(),
            name="red",
        )
        probe = QueueProbe(queue, ("drops",))
        for packet in self._packets(6):
            queue.enqueue(packet, 1.0)
        assert queue.stats.drops > 0
        assert set(probe.drops.column("cause")) == {"red_forced"}
        assert "red_early" not in probe.drop_causes
        assert "buffer_overflow" not in probe.drop_causes

    def test_red_buffer_overflow_drop_rows(self):
        # min_th far above the physical capacity: RED never engages, so
        # the only refusals are physical buffer overflows -- RED's
        # droptail-of-last-resort path, labelled distinctly.
        queue = REDQueue(
            3,
            REDParams(min_th=50.0, max_th=60.0, weight=1.0),
            name="red",
        )
        probe = QueueProbe(queue, ("drops",))
        for packet in self._packets(5):
            queue.enqueue(packet, 1.0)
        assert probe.drops.column("cause") == ["buffer_overflow"] * 2
        assert probe.drops.column("seqno") == [3, 4]

    def test_red_drop_causes_labelled(self):
        queue = REDQueue(
            8, REDParams(min_th=1.0, max_th=3.0, weight=0.5), name="red"
        )
        probe = QueueProbe(queue, ("queue", "drops"))
        now = 0.0
        for packet in self._packets(60):
            now += 0.001
            queue.enqueue(packet, now)
        assert queue.stats.drops > 0
        causes = set(probe.drop_causes)
        assert causes <= {"red_early", "red_forced", "buffer_overflow"}
        assert causes
        # occupancy rows carry the RED average alongside raw length.
        avgs = probe.occupancy.column("red_avg")
        assert any(avg > 0 for avg in avgs)

    def test_hybrid_gateway_occupancy_includes_the_fluid_level(self):
        """``len(queue)`` on the hybrid gateway is foreground packets
        *plus* the fluid backlog, and that is what the probe records;
        the queue's own time-weighted occupancy counts its packets only."""
        import random
        from types import SimpleNamespace

        from repro.core.hybrid_backend import HybridGatewayQueue

        coupler = SimpleNamespace(
            solver=SimpleNamespace(queue="fifo"),
            note_foreground_arrival=lambda now: None,
            drop_probability=lambda now: 0.0,
            queue_level=lambda now: 7 if now < 3.0 else 4,
        )
        queue = HybridGatewayQueue(16, coupler, random.Random(1))
        probe = QueueProbe(queue, ("queue",))
        first, second = self._packets(2)
        queue.enqueue(first, 0.0)
        queue.enqueue(second, 1.0)
        queue.dequeue(3.0)
        assert probe.occupancy.column("length") == [8, 9, 5]
        assert probe.occupancy.column("red_avg") == [8.0, 9.0, 5.0]
        assert _snapshot(probe, "queue")["queue.max_depth.q:gateway->server"] == 9
        # 1 packet over [0, 1), 2 over [1, 3): the fluid level is not in it.
        assert queue.stats.mean_occupancy(1.0) == 1 * 1.0 + 2 * 2.0



def _scripted_cell(make_queue):
    """A bare queue under both probes and a script of arrivals from
    four flows, with a departure after every third arrival."""

    def build():
        queue = make_queue()
        obs = QueueProbe(queue, ("queue",))
        params = ForensicsParams.from_config(paper_config(forensics=True))
        forensics = ForensicsProbe(params, n_flows=4, queue=queue)
        factory = PacketFactory()

        def run():
            for i in range(60):
                now = 0.01 * i
                queue.enqueue(factory.data(i % 4, "a", "b", 1000, seqno=i, now=now), now)
                if i % 3 == 2:
                    queue.dequeue(now)

        return queue, obs, forensics, run

    return build


def _hybrid_cell():
    from repro.core.hybrid_backend import HybridScenario

    scenario = HybridScenario(
        paper_config(
            protocol="reno", backend="hybrid", n_clients=200,
            hybrid_foreground_flows=3, duration=3.0, warmup=0.0,
            obs_trace=("queue",), forensics=True,
        )
    )
    return (
        scenario.network.bottleneck_queue,
        scenario.queue_probe,
        scenario.forensics_probe,
        scenario.run,
    )


@pytest.mark.parametrize(
    "build",
    [
        _scripted_cell(lambda: DropTailQueue(8, name="q")),
        _scripted_cell(
            lambda: REDQueue(8, REDParams(min_th=1.0, max_th=3.0, weight=0.5))
        ),
        _scripted_cell(lambda: DRRQueue(8)),
        _hybrid_cell,
    ],
    ids=["droptail", "red", "drr", "hybrid"],
)
def test_probes_record_len_of_the_queue_at_every_hook(build):
    """Both queue probes read the length the queue's class decided once
    (``queue.read_length``); at every hook that is ``len(queue)``,
    whichever ``__len__`` the class has."""
    queue, obs, forensics, run = build()
    sampled = []
    forensics.bursts.on_sample = lambda now, length: sampled.append(length)
    # Registered after both probes, so each call sees the same state.
    truth = []
    queue.add_enqueue_hook(lambda packet, now: truth.append(len(queue)))
    queue.add_dequeue_hook(lambda packet, now: truth.append(len(queue)))
    run()
    assert len(truth) > 20
    assert obs.occupancy.column("length") == truth
    assert sampled == truth


# ----------------------------------------------------------------------
# Bundle export
# ----------------------------------------------------------------------
class TestObsBundle:
    def _result(self):
        config = paper_config(
            n_clients=3,
            duration=10.0,
            seed=2,
            obs_trace=("cwnd", "queue", "drops"),
            obs_profile=True,
        )
        return Scenario(config).run()

    def test_summary_counts(self):
        result = self._result()
        obs = result.obs
        assert obs.n_cwnd_samples > 0
        assert obs.n_queue_samples > 0
        assert obs.engine is not None
        assert obs.engine.events_executed == result.events_executed

    def test_export_jsonl(self, tmp_path):
        result = self._result()
        written = result.obs.export(str(tmp_path))
        names = {p.split("/")[-1] for p in written}
        assert "engine_profile.json" in names
        assert "flow_cwnd.jsonl" in names
        assert "queue_occupancy.jsonl" in names
        # Disabled categories produce no files at all.
        assert "flow_rtt.jsonl" not in names
        with open(tmp_path / "flow_cwnd.jsonl") as handle:
            rows = [json.loads(line) for line in handle]
        assert {"time", "cwnd", "ssthresh", "flow_id"} <= set(rows[0])
        flow_ids = {row["flow_id"] for row in rows}
        assert flow_ids == {0, 1, 2}

    def test_export_csv(self, tmp_path):
        result = self._result()
        result.obs.export(str(tmp_path), fmt="csv")
        lines = (tmp_path / "flow_cwnd.csv").read_text().splitlines()
        assert lines[0] == "flow_id,time,cwnd,ssthresh"
        assert len(lines) > 1

    def test_export_twice_replaces(self, tmp_path):
        result = self._result()
        result.obs.export(str(tmp_path))
        first = (tmp_path / "flow_cwnd.jsonl").read_text()
        result.obs.export(str(tmp_path))
        assert (tmp_path / "flow_cwnd.jsonl").read_text() == first

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ObsBundle().export(str(tmp_path), fmt="xml")

    def test_empty_bundle_writes_nothing(self, tmp_path):
        assert ObsBundle().export(str(tmp_path)) == []


# ----------------------------------------------------------------------
# Experiment-layer integration
# ----------------------------------------------------------------------
class TestMetricsIntegration:
    def test_perf_fields_populated(self):
        config = paper_config(n_clients=2, duration=5.0)
        metrics = ScenarioMetrics.from_result(run_scenario(config))
        assert metrics.perf_wall_time > 0
        assert metrics.perf_events_executed > 0
        assert metrics.perf_events_per_sec > 0
        assert metrics.perf_sim_wall_ratio > 0
        assert metrics.perf_peak_rss_kb > 0

    def test_obs_counts_flow_into_metrics(self):
        config = paper_config(
            n_clients=2, duration=5.0, obs_trace=("cwnd", "queue")
        )
        metrics = ScenarioMetrics.from_result(run_scenario(config))
        assert metrics.obs_cwnd_samples > 0
        assert metrics.obs_queue_samples > 0
        assert metrics.obs_rtt_samples == 0  # category off

    def test_equality_ignores_wall_clock_telemetry(self):
        config = paper_config(n_clients=2, duration=5.0)
        first = ScenarioMetrics.from_result(run_scenario(config))
        second = ScenarioMetrics.from_result(run_scenario(config))
        assert first.perf_wall_time != second.perf_wall_time or True
        assert first == second
        assert hash(first) == hash(second)

    def test_from_dict_round_trip_keeps_perf_fields(self):
        config = paper_config(n_clients=2, duration=5.0)
        metrics = ScenarioMetrics.from_result(run_scenario(config))
        rebuilt = ScenarioMetrics.from_dict(metrics.as_dict())
        assert rebuilt == metrics
        assert rebuilt.perf_events_executed == metrics.perf_events_executed

    def test_old_records_default_perf_fields(self):
        config = paper_config(n_clients=2, duration=5.0)
        metrics = ScenarioMetrics.from_result(run_scenario(config))
        record = metrics.as_dict()
        for name in list(record):
            if name.startswith("perf_") or name.startswith("obs_"):
                del record[name]
        rebuilt = ScenarioMetrics.from_dict(record)
        assert math.isnan(rebuilt.perf_wall_time)
        assert rebuilt.obs_cwnd_samples == 0

    def test_obs_trace_does_not_change_digest(self):
        base = paper_config()
        traced = base.with_(obs_trace=("cwnd",), obs_profile=True)
        assert base.config_digest() == traced.config_digest()

    def test_invalid_obs_trace_rejected(self):
        with pytest.raises(ValueError, match="obs_trace"):
            paper_config(obs_trace=("bogus",)).validate()


class TestFlowProbeAttachment:
    def test_attach_probe_publishes_initial_window(self):
        config = paper_config(n_clients=1, duration=1.0, obs_trace=("cwnd",))
        scenario = Scenario(config)
        probe = scenario.flow_probes[0]
        assert isinstance(probe, FlowProbe)
        assert len(probe.cwnd) == 1  # the initial cwnd/ssthresh sample
        assert scenario.senders[0].obs is probe

    def test_udp_flows_get_no_probe(self):
        config = paper_config(
            protocol="udp", n_clients=1, duration=1.0, obs_trace=("cwnd",)
        )
        scenario = Scenario(config)
        assert scenario.flow_probes == {}
