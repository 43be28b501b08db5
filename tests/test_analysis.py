"""Unit tests for the analysis utilities (stats, timeseries, plots, tables, io)."""

import json

import numpy as np
import pytest

from repro.analysis.asciiplot import ascii_series_plot, ascii_step_plot
from repro.analysis.io import results_to_csv, results_to_json
from repro.analysis.stats import (
    Summary,
    confidence_interval,
    jains_fairness_index,
    summarize,
)
from repro.analysis.tables import format_table
from repro.analysis.timeseries import (
    all_decrease_events,
    decrease_events,
    sample_step_series,
    step_mean,
    synchronization_fraction,
    uniform_grid,
)


class TestStats:
    def test_summarize_values(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.n == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.median == pytest.approx(2.5)
        assert summary.cov == pytest.approx(summary.std / summary.mean)

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_summary_cov_zero_mean(self):
        summary = Summary(n=2, mean=0.0, std=0.0, minimum=0, maximum=0, median=0)
        assert summary.cov == 0.0

    def test_confidence_interval_contains_mean(self):
        values = np.random.default_rng(0).normal(10, 2, size=400)
        low, high = confidence_interval(values, 0.95)
        assert low < values.mean() < high
        # ~1.96 * 2/sqrt(400) ~ 0.2 half-width.
        assert (high - low) / 2 == pytest.approx(0.196, rel=0.15)

    def test_confidence_interval_single_sample(self):
        assert confidence_interval([5.0]) == (5.0, 5.0)

    def test_confidence_interval_bad_level(self):
        with pytest.raises(ValueError):
            confidence_interval([1.0, 2.0], level=0.5)

    def test_fairness_equal_allocations(self):
        assert jains_fairness_index([10, 10, 10]) == pytest.approx(1.0)

    def test_fairness_single_hog(self):
        # One of n flows getting everything: index = 1/n.
        assert jains_fairness_index([30, 0, 0]) == pytest.approx(1 / 3)

    def test_fairness_empty_raises(self):
        with pytest.raises(ValueError):
            jains_fairness_index([])


class TestTimeseries:
    LOG = [(1.0, 10.0), (3.0, 20.0)]

    def test_sample_before_first_change_uses_initial(self):
        values = sample_step_series(self.LOG, [0.5], initial=5.0)
        assert list(values) == [5.0]

    def test_sample_holds_value_between_changes(self):
        values = sample_step_series(self.LOG, [1.0, 2.0, 3.0, 4.0])
        assert list(values) == [10.0, 10.0, 20.0, 20.0]

    def test_sample_empty_log(self):
        values = sample_step_series([], [0.0, 1.0], initial=7.0)
        assert list(values) == [7.0, 7.0]

    def test_uniform_grid(self):
        grid = uniform_grid(0.0, 1.0, 0.25)
        assert list(grid) == [0.0, 0.25, 0.5, 0.75]

    def test_uniform_grid_validation(self):
        with pytest.raises(ValueError):
            uniform_grid(0.0, 1.0, 0.0)
        assert uniform_grid(1.0, 1.0, 0.1).size == 0

    def test_step_mean_time_weighted(self):
        # value 0 on [0,1), 10 on [1,3), 20 on [3,4] -> (0 + 20 + 20)/4.
        assert step_mean(self.LOG, 0.0, 4.0, initial=0.0) == pytest.approx(10.0)

    def test_step_mean_window_after_changes(self):
        assert step_mean(self.LOG, 5.0, 6.0) == pytest.approx(20.0)

    def test_step_mean_invalid_window(self):
        with pytest.raises(ValueError):
            step_mean(self.LOG, 2.0, 2.0)

    # Two sawtooths that collapse together at t=5, one that collapses
    # alone at t=9, and a window that only ever grows.
    WINDOWS = {
        0: [(0.0, 1.0), (2.0, 8.0), (5.0, 4.0), (7.0, 6.0)],
        1: [(0.0, 1.0), (3.0, 9.0), (5.5, 1.0), (9.0, 0.5)],
        2: [(0.0, 1.0), (4.0, 2.0), (8.0, 3.0)],
    }

    def test_decrease_events_are_the_times_a_window_shrank(self):
        assert decrease_events(self.WINDOWS[1]) == [5.5, 9.0]
        assert decrease_events(self.WINDOWS[2]) == []
        assert all_decrease_events(self.WINDOWS) == [(5.0, 0), (5.5, 1), (9.0, 1)]

    def test_synchronization_counts_another_flows_decrease_nearby(self):
        # 5.0 and 5.5 share a one-second window; 9.0 has only its own
        # flow's 5.5 within reach of a wider one.
        assert synchronization_fraction(self.WINDOWS) == pytest.approx(2 / 3)
        assert synchronization_fraction(self.WINDOWS, window=0.25) == 0.0
        assert synchronization_fraction(self.WINDOWS, window=4.0) == 1.0
        assert synchronization_fraction({0: self.WINDOWS[2]}) == 0.0


class TestAsciiPlot:
    def test_series_plot_contains_markers_and_legend(self):
        plot = ascii_series_plot(
            {"a": ([0, 1, 2], [0, 1, 2]), "b": ([0, 1, 2], [2, 1, 0])},
            width=40,
            height=10,
            title="T",
        )
        assert "T" in plot
        assert "legend:" in plot
        assert "o a" in plot and "* b" in plot

    def test_empty_series(self):
        assert ascii_series_plot({}) == "(no data)"

    def test_non_finite_only(self):
        plot = ascii_series_plot({"a": ([0.0], [float("nan")])})
        assert plot == "(no finite data)"

    def test_axis_labels_present(self):
        plot = ascii_series_plot(
            {"a": ([0, 10], [5, 15])}, width=30, height=8, xlabel="clients"
        )
        assert "clients" in plot
        assert "15" in plot  # y max label

    def test_step_plot(self):
        plot = ascii_step_plot([(0.0, 1.0), (5.0, 3.0)], 0.0, 10.0, width=30)
        assert "time (s)" in plot


class TestTables:
    def test_alignment_and_headers(self):
        table = format_table(
            ["name", "value"], [["reno", 1.5], ["vegas", 2.25]], precision=2
        )
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "1.50" in table and "2.25" in table

    def test_title(self):
        table = format_table(["a"], [[1]], title="My Table")
        assert table.splitlines()[0] == "My Table"

    def test_nan_rendered_as_dash(self):
        table = format_table(["x"], [[float("nan")]])
        assert "-" in table.splitlines()[-1]

    def test_bool_rendering(self):
        table = format_table(["flag"], [[True], [False]])
        assert "yes" in table and "no" in table

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows(self):
        table = format_table(["a", "b"], [])
        assert "a" in table


class TestIO:
    def test_json_roundtrip_with_numpy(self, tmp_path):
        path = tmp_path / "out.json"
        results_to_json({"arr": np.array([1.0, 2.0]), "x": 3}, str(path))
        data = json.loads(path.read_text())
        assert data == {"arr": [1.0, 2.0], "x": 3}

    def test_json_serializes_dataclasses(self, tmp_path):
        from repro.analysis.stats import Summary

        summary = summarize([1.0, 2.0])
        path = tmp_path / "s.json"
        results_to_json(summary, str(path))
        data = json.loads(path.read_text())
        assert data["n"] == 2

    def test_csv_field_union(self, tmp_path):
        path = tmp_path / "out.csv"
        n = results_to_csv([{"a": 1}, {"b": 2}], str(path))
        assert n == 2
        text = path.read_text()
        assert text.splitlines()[0] == "a,b"

    def test_csv_explicit_fields(self, tmp_path):
        path = tmp_path / "out.csv"
        results_to_csv([{"a": 1, "b": 2}], str(path), field_names=["b"])
        assert path.read_text().splitlines()[0] == "b"
