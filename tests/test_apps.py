"""Tests for the closed-loop application-workload subsystem.

Covers the work-unit machinery (completion detection, timeouts), each
workload's behaviour inside a full scenario, seed determinism (same
seed => bit-identical job metrics), and the threading of AppMetrics
through ScenarioResult / ScenarioMetrics / the CLI.
"""

import math

import pytest

from repro.experiments.cli import main as cli_main
from repro.experiments.config import paper_config
from repro.experiments.results import ScenarioMetrics
from repro.experiments.scenario import Scenario, run_scenario


def small_config(**overrides):
    defaults = dict(n_clients=6, duration=15.0, seed=3)
    defaults.update(overrides)
    return paper_config(**defaults)


class TestRpcWorkload:
    def test_requests_complete_with_positive_latency(self):
        result = run_scenario(small_config(workload="rpc"))
        app = result.app
        assert app is not None and app.workload == "rpc"
        assert app.units_completed > 0
        assert app.units_issued >= app.units_completed
        assert 0 < app.latency_p50 <= app.latency_p99 <= app.latency_max
        # The response-path model puts a hard floor under the latency:
        # one forward RTT's worth of propagation at the very least.
        config = result.config
        assert app.latency_p50 > config.client_delay + config.bottleneck_delay

    def test_outstanding_window_scales_offered_load(self):
        narrow = run_scenario(small_config(workload="rpc", rpc_outstanding=1))
        wide = run_scenario(small_config(workload="rpc", rpc_outstanding=4))
        assert wide.app.units_issued > narrow.app.units_issued

    def test_closed_loop_throttles_under_congestion(self):
        # The same client population completes fewer requests per second
        # when the bottleneck is congested: backpressure reaches the app.
        fast = run_scenario(small_config(workload="rpc"))
        slow = run_scenario(
            small_config(workload="rpc", bottleneck_rate_bps=0.1e6)
        )
        assert slow.app.achieved_unit_rate < fast.app.achieved_unit_rate
        assert slow.app.latency_p50 > fast.app.latency_p50

    def test_per_flow_series_live_on_the_workloads(self):
        scenario = Scenario(small_config(workload="rpc"))
        scenario.run()
        assert len(scenario.apps) == 6
        assert all(app.request_latencies for app in scenario.apps)


class TestBspWorkload:
    def test_supersteps_and_stalls(self):
        result = run_scenario(small_config(workload="bsp", bsp_shuffle_packets=10))
        app = result.app
        assert app.workload == "bsp"
        assert app.supersteps > 0
        assert app.barrier_stall_mean >= 0.0
        assert app.barrier_stall_max >= app.barrier_stall_mean

    def test_barrier_accounting_is_consistent(self):
        scenario = Scenario(small_config(workload="bsp", bsp_shuffle_packets=10))
        scenario.run()
        coordinator = scenario.bsp_coordinator
        assert coordinator is not None
        # Every completed superstep records exactly one stall per worker,
        # and every superstep at least one worker stalls zero seconds
        # (the last arriver defines the barrier).
        for app in scenario.apps:
            assert len(app.barrier_stalls) == coordinator.supersteps_completed
        for step in range(coordinator.supersteps_completed):
            stalls = [app.barrier_stalls[step] for app in scenario.apps]
            assert min(stalls) == pytest.approx(0.0)

    def test_workers_advance_in_lockstep(self):
        scenario = Scenario(small_config(workload="bsp", bsp_shuffle_packets=10))
        scenario.run()
        issued = {app.units_issued for app in scenario.apps}
        # No worker can be more than one superstep ahead of the barrier.
        assert max(issued) - min(issued) <= 1


class TestBulkWorkload:
    def test_jobs_complete_and_time_is_physical(self):
        config = small_config(workload="bulk", bulk_job_packets=50)
        result = run_scenario(config)
        app = result.app
        assert app.workload == "bulk"
        assert app.units_completed > 0
        # A 50-packet job cannot finish faster than its serialization
        # plus one-way propagation through the dumbbell.
        floor = (
            50 * config.packet_size * 8.0 / config.bottleneck_rate_bps
            + config.client_delay
            + config.bottleneck_delay
        )
        assert app.job_time_p50 >= floor

    def test_udp_cannot_finish_oversized_jobs(self):
        # 200-packet UDP blasts through a 50-packet buffer always lose
        # packets, and UDP never repairs them: zero jobs complete, and
        # with a short unit timeout the losses surface as failures.
        result = run_scenario(
            small_config(workload="bulk", protocol="udp", workload_timeout=2.0)
        )
        app = result.app
        assert app.units_completed == 0
        assert app.units_failed > 0


class TestDeterminism:
    @pytest.mark.parametrize("workload", ["rpc", "bsp", "bulk"])
    def test_same_seed_bit_identical_series(self, workload):
        config = small_config(workload=workload)
        first = Scenario(config)
        first.run()
        second = Scenario(config)
        second.run()
        for app_a, app_b in zip(first.apps, second.apps):
            for series in ("request_latencies", "job_times", "barrier_stalls"):
                assert getattr(app_a, series, []) == getattr(app_b, series, [])
            assert app_a.units_issued == app_b.units_issued
            assert app_a.units_completed == app_b.units_completed
            assert app_a.units_failed == app_b.units_failed

    @pytest.mark.parametrize("workload", ["rpc", "bulk"])
    def test_different_seed_different_series(self, workload):
        first = Scenario(small_config(workload=workload, seed=3))
        first.run()
        second = Scenario(small_config(workload=workload, seed=4))
        second.run()
        def series(scenario):
            return [
                tuple(getattr(a, "request_latencies", ()))
                + tuple(getattr(a, "job_times", ()))
                for a in scenario.apps
            ]

        assert series(first) != series(second)


class TestMetricsThreading:
    def test_scenario_metrics_carry_app_fields(self):
        result = run_scenario(small_config(workload="rpc"))
        metrics = ScenarioMetrics.from_result(result)
        assert metrics.app_workload == "rpc"
        assert metrics.app_units_completed == result.app.units_completed
        assert metrics.app_latency_p99 == result.app.latency_p99
        assert "+RPC" in metrics.label

    def test_open_loop_runs_have_empty_app_fields(self):
        result = run_scenario(small_config())
        assert result.app is None
        metrics = ScenarioMetrics.from_result(result)
        assert metrics.app_workload == ""
        assert metrics.app_units_issued == 0
        assert math.isnan(metrics.app_latency_mean)

    def test_app_metrics_round_trips_via_dict(self):
        # The app_* columns survive the dict a cache entry stores.
        result = run_scenario(small_config(workload="bulk", bulk_job_packets=50))
        app = result.app
        record = ScenarioMetrics.from_result(result).as_dict()
        rebuilt = ScenarioMetrics.from_dict(record)
        assert rebuilt.app_units_completed == app.units_completed
        assert rebuilt.app_job_time_mean == app.job_time_mean

    def test_scenario_metrics_from_dict_accepts_old_records(self):
        # A record written before the apps subsystem existed (no app_*
        # keys) must still load, with the workload fields defaulted.
        result = run_scenario(small_config())
        record = ScenarioMetrics.from_result(result).as_dict()
        for key in list(record):
            if key.startswith("app_"):
                del record[key]
        metrics = ScenarioMetrics.from_dict(record)
        assert metrics.app_workload == ""
        assert math.isnan(metrics.app_latency_p99)

    def test_describe_mentions_the_unit_noun(self):
        result = run_scenario(small_config(workload="rpc"))
        text = result.app.describe()
        assert "request" in text
        assert "latency" in text


class TestCliWorkloads:
    @pytest.mark.parametrize("workload", ["rpc", "bsp", "bulk"])
    def test_run_subcommand(self, workload, capsys):
        code = cli_main(
            [
                "run",
                "--workload",
                workload,
                "--clients",
                "4",
                "--duration",
                "6",
                "--bulk-job-packets",
                "40",
                "--bsp-shuffle-packets",
                "10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"application workload: {workload}" in out

    def test_workload_flags_reach_the_config(self, capsys):
        code = cli_main(
            [
                "run",
                "--workload",
                "rpc",
                "--clients",
                "4",
                "--duration",
                "6",
                "--rpc-outstanding",
                "3",
                "--rpc-think",
                "0.05",
            ]
        )
        assert code == 0
        assert "+RPC" in capsys.readouterr().out
