"""Integration tests for the per-figure experiment functions."""

import pytest

from repro.experiments.config import paper_config
from repro.experiments.figures import (
    FIGURE2_PROTOCOLS,
    FIGURES,
    FigureData,
    build_figure,
    cwnd_trace_experiment,
    default_traced_flows,
    figure2_cov,
    run_protocol_sweep,
)


@pytest.fixture(scope="module")
def sweep():
    base = paper_config(duration=6.0, seed=2)
    return run_protocol_sweep(
        [2, 4],
        base=base,
        protocols={"udp": ("udp", "fifo"), "reno": ("reno", "fifo")},
        processes=1,
    )


class TestSweep:
    def test_structure(self, sweep):
        assert set(sweep) == {"udp", "reno"}
        assert [m.n_clients for m in sweep["udp"]] == [2, 4]

    def test_metrics_sorted_by_clients(self, sweep):
        for metrics in sweep.values():
            counts = [m.n_clients for m in metrics]
            assert counts == sorted(counts)

    def test_figure2_protocols_cover_paper_legend(self):
        labels = set(FIGURE2_PROTOCOLS)
        assert labels == {
            "udp",
            "reno",
            "reno_red",
            "vegas",
            "vegas_red",
            "reno_delack",
        }


class TestFigure2:
    def test_series_include_analytic_poisson(self, sweep):
        figure = figure2_cov(sweep, paper_config(duration=6.0))
        assert "Poisson" in figure.series
        assert "UDP" in figure.series
        assert "Reno" in figure.series

    def test_poisson_series_decreasing(self, sweep):
        figure = figure2_cov(sweep, paper_config(duration=6.0))
        _xs, ys = figure.series["Poisson"]
        assert ys == sorted(ys, reverse=True)

    def test_renderers_produce_text(self, sweep):
        figure = figure2_cov(sweep, paper_config(duration=6.0))
        assert "Figure 2" in figure.render_plot()
        assert "Figure 2" in figure.render_table()


class TestFigures3_4_13:
    def test_min_clients_filter(self, sweep):
        figure = build_figure(FIGURES["fig03_throughput"], sweep, min_clients=4)
        for _name, (xs, _ys) in figure.series.items():
            assert all(x >= 4 for x in xs)

    def test_udp_excluded_from_tcp_figures(self, sweep):
        for name in ("fig03_throughput", "fig04_loss", "fig13_timeout_ratio"):
            figure = build_figure(FIGURES[name], sweep, min_clients=0)
            assert "UDP" not in figure.series
            assert "Reno" in figure.series

    def test_loss_values_are_percentages(self, sweep):
        figure = build_figure(FIGURES["fig04_loss"], sweep, min_clients=0)
        for _name, (_xs, ys) in figure.series.items():
            assert all(0.0 <= y <= 100.0 for y in ys)


class TestFigureData:
    def test_to_rows_long_format(self):
        figure = FigureData("F", "t", "x", "y")
        figure.add_series("a", [1, 2], [3, 4])
        rows = figure.to_rows()
        assert rows == [
            {"series": "a", "x": 1, "y": 3},
            {"series": "a", "x": 2, "y": 4},
        ]

    def test_table_merges_sparse_series(self):
        figure = FigureData("F", "t", "x", "y")
        figure.add_series("a", [1.0, 2.0], [10.0, 20.0])
        figure.add_series("b", [2.0], [30.0])
        table = figure.render_table()
        assert "a" in table and "b" in table


class TestFullProtocolSet:
    def test_all_figure2_protocols_run_in_one_sweep(self):
        base = paper_config(duration=4.0, seed=1)
        sweep = run_protocol_sweep([2], base=base, processes=1)
        assert set(sweep) == set(FIGURE2_PROTOCOLS)
        for key, metrics in sweep.items():
            assert len(metrics) == 1
            assert metrics[0].throughput_packets > 0, key
        figure = figure2_cov(sweep, base)
        # Analytic curve + six measured series.
        assert len(figure.series) == 7


class TestCwndTraces:
    def test_default_flows_first_middle_last(self):
        result = cwnd_trace_experiment(
            "reno", 6, base=paper_config(duration=5.0), duration=5.0
        )
        assert set(result.cwnd_traces()) == set(range(6))
        assert set(result.cwnd_traces(default_traced_flows(6))) == {0, 3, 5}

    def test_explicit_flows(self):
        result = cwnd_trace_experiment("vegas", 4, base=paper_config(duration=5.0))
        assert set(result.cwnd_traces([1])) == {1}
        assert set(result.cwnd_traces([1, 7])) == {1}

    def test_trace_values_bounded_by_advertised_window(self):
        result = cwnd_trace_experiment(
            "reno", 4, base=paper_config(duration=5.0)
        )
        for trace in result.cwnd_traces().values():
            assert all(1.0 <= v <= 20.0 for _, v in trace)
