"""Unit/integration tests for sweeps and flat result records."""


from repro.experiments.config import paper_config
from repro.experiments.results import ScenarioMetrics, metrics_table
from repro.experiments.scenario import run_scenario
from repro.experiments.figures import run_protocol_sweep
from repro.experiments.runner import run_one
from repro.experiments.sweep import run_many


def tiny(**overrides):
    defaults = dict(n_clients=3, duration=5.0, seed=1)
    defaults.update(overrides)
    return paper_config(**defaults)


class TestScenarioMetrics:
    def test_from_result_flattens(self):
        result = run_scenario(tiny(protocol="reno"))
        metrics = ScenarioMetrics.from_result(result)
        assert metrics.protocol == "reno"
        assert metrics.label == "Reno"
        assert metrics.n_clients == 3
        assert metrics.cov == result.cov
        assert metrics.throughput_packets == result.throughput_packets
        assert 0.0 < metrics.fairness <= 1.0

    def test_as_dict_round_trips_to_table(self):
        metrics = ScenarioMetrics.from_result(run_scenario(tiny(protocol="udp")))
        table = metrics_table([metrics], title="T")
        assert "UDP" in table
        assert "T" in table

    def test_metrics_picklable(self):
        import pickle

        metrics = ScenarioMetrics.from_result(run_scenario(tiny(protocol="udp")))
        assert pickle.loads(pickle.dumps(metrics)) == metrics


class TestRunMany:
    def test_preserves_order_serial(self):
        configs = [tiny(protocol="udp"), tiny(protocol="reno")]
        metrics = run_many(configs, processes=1)
        assert [m.protocol for m in metrics] == ["udp", "reno"]

    def test_parallel_matches_serial(self):
        configs = [tiny(protocol="udp"), tiny(protocol="reno"), tiny(protocol="vegas")]
        serial = run_many(configs, processes=1)
        parallel = run_many(configs, processes=2)
        assert serial == parallel

    def test_single_config(self):
        metrics = run_many([tiny()], processes=4)
        assert len(metrics) == 1

    def test_run_one_equivalent(self):
        config = tiny(protocol="udp")
        assert run_one(config) == run_many([config], processes=1)[0]


class TestClientGrid:
    """The client-count axis every sweep figure runs over."""

    def test_builds_configs_per_count(self):
        sweep = run_protocol_sweep(
            [4, 2, 3], tiny(duration=2.0), {"udp": ("udp", "fifo")}, processes=1
        )
        assert [m.n_clients for m in sweep["udp"]] == [2, 3, 4]

    def test_overrides_applied(self):
        sweep = run_protocol_sweep(
            [2], tiny(duration=2.0), {"v": ("vegas", "red")}, processes=1
        )
        assert [(m.protocol, m.queue) for m in sweep["v"]] == [("vegas", "red")]
