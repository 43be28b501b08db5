"""Tests for the burst-forensics subsystem (repro.forensics).

Unit coverage of the three detectors (window accountants + sketch,
burst hysteresis, loss-sync clustering) and the linkage rules, then
integration through the full scenario pipeline: the seeded 40-client
droptail dumbbell must attribute with sketch precision@k >= 0.9 and
link every burst to a loss-synchronization event, while the same load
through RED (with physical headroom above max_th, so early drops
rather than overflows do the work) must show measurably fewer bursts
and sync-linked bursts -- the paper's smoothing claim, per episode.

``tests/goldens/forensics/`` pins the full report payload of the
seeded droptail run; regenerate intentionally-changed goldens with::

    PYTHONPATH=src python -m pytest tests/test_forensics.py --update-goldens
"""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.cli import main
from repro.experiments.config import CONFIG_SCHEMA_VERSION, paper_config
from repro.experiments.results import ScenarioMetrics
from repro.experiments.scenario import run_scenario
from repro.forensics.bursts import BurstDetector, BurstEpisode
from repro.forensics.probe import LOSS_STATES, ForensicsParams
from repro.forensics.sync import LossSyncDetector, SyncEvent, link_bursts
from repro.forensics.windows import (
    SketchWindowAccountant,
    SpaceSavingSketch,
    WindowAccountant,
    precision_at_k,
)

GOLDEN_DIR = Path(__file__).parent / "goldens" / "forensics"

# The goldens' Figure 2 point: just above the congestion knee, every
# burst mechanism exercised.
BASE = dict(n_clients=40, duration=16.0, seed=7)


@pytest.fixture(scope="module")
def droptail_report():
    """One seeded droptail run shared by the integration tests."""
    config = paper_config(**BASE, forensics=True)
    result = run_scenario(config)
    assert result.forensics is not None
    return result


# ----------------------------------------------------------------------
# Window accountants and the sketch
# ----------------------------------------------------------------------
class TestWindowAccountant:
    def test_charges_packets_to_window_and_flow(self):
        acct = WindowAccountant(window=1.0)
        acct.record(3, 0.2, 1000)
        acct.record(3, 0.7, 1000)
        acct.record(5, 0.9, 500)
        acct.record(3, 1.1, 1000)  # next window
        assert acct.windows() == [0, 1]
        assert acct.window_counts(0) == {3: [2, 2000], 5: [1, 500]}
        assert acct.window_total_bytes(0) == 2500
        top = acct.top_k(0, 1)
        assert top[0].flow_id == 3
        assert top[0].bytes == 2000
        assert top[0].share == pytest.approx(0.8)

    def test_top_k_ties_break_on_flow_id(self):
        acct = WindowAccountant(window=1.0)
        for flow in (9, 4, 7):
            acct.record(flow, 0.1, 1000)
        assert [s.flow_id for s in acct.top_k(0, 3)] == [4, 7, 9]

    def test_span_counts_merge_windows(self):
        acct = WindowAccountant(window=1.0)
        acct.record(1, 0.5, 100)
        acct.record(1, 1.5, 100)
        acct.record(2, 1.6, 300)
        assert acct.span_counts(0, 1) == {1: [2, 200], 2: [1, 300]}

    def test_window_geometry(self):
        acct = WindowAccountant(window=0.5, start=1.0)
        assert acct.window_index(1.0) == 0
        assert acct.window_index(1.49) == 0
        assert acct.window_index(2.0) == 2
        assert acct.window_start(2) == 2.0


class TestSpaceSavingSketch:
    def _skewed_stream(self):
        """200 updates over 30 flows; flows 0-2 are the heavy hitters."""
        stream = []
        for i in range(200):
            if i % 2 == 0:
                stream.append((i % 3, 1000))  # heavy: 0, 1, 2
            else:
                stream.append((3 + (i * 7) % 27, 100))  # light tail
        return stream

    def test_error_bound_invariant(self):
        # true <= estimate <= true + error, error <= total/capacity,
        # for every tracked key -- the Metwally et al. guarantee.
        sketch = SpaceSavingSketch(capacity=8)
        true = {}
        for key, weight in self._skewed_stream():
            sketch.update(key, weight)
            true[key] = true.get(key, 0) + weight
        assert len(sketch) == 8  # evictions actually happened
        for key, weight, _count, error in sketch.entries():
            assert true[key] <= weight <= true[key] + error
            assert error <= sketch.max_error

    def test_guaranteed_ranking_finds_heavy_hitters(self):
        sketch = SpaceSavingSketch(capacity=8)
        for key, weight in self._skewed_stream():
            sketch.update(key, weight)
        top3 = {key for key, *_ in sketch.top_k(3)}
        assert top3 == {0, 1, 2}

    def test_guaranteed_is_estimate_minus_error(self):
        sketch = SpaceSavingSketch(capacity=2)
        sketch.update(1, 10)
        sketch.update(2, 20)
        sketch.update(3, 5)  # evicts 1 (min weight), inherits floor 10
        assert sketch.estimate(3) == 15
        assert sketch.error(3) == 10
        assert sketch.guaranteed(3) == 5
        assert sketch.estimate(1) == 0  # evicted keys read as untracked

    def test_eviction_is_deterministic_on_ties(self):
        sketch = SpaceSavingSketch(capacity=2)
        sketch.update(7, 10)
        sketch.update(4, 10)
        sketch.update(9, 1)  # tie on weight: evicts the smaller key, 4
        assert sketch.estimate(4) == 0
        assert sketch.estimate(7) == 10

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SpaceSavingSketch(0)

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(1, 5),
        updates=st.lists(
            st.tuples(st.integers(0, 11), st.integers(1, 3)), max_size=60
        ),
    )
    def test_evicts_the_min_weight_then_min_key(self, capacity, updates):
        """Each eviction takes ``min(weights, key=lambda k: (weights[k],
        k))`` of the weights before it, ties included (weights 1-3 over
        12 keys tie often)."""
        sketch = SpaceSavingSketch(capacity)
        weights, counts, errors = {}, {}, {}
        for key, weight in updates:
            if key in weights:
                weights[key] += weight
                counts[key] += 1
            elif len(weights) < capacity:
                weights[key], counts[key], errors[key] = weight, 1, 0
            else:
                victim = min(weights, key=lambda k: (weights[k], k))
                floor = weights.pop(victim)
                floor_count = counts.pop(victim)
                del errors[victim]
                weights[key] = floor + weight
                counts[key] = floor_count + 1
                errors[key] = floor
            sketch.update(key, weight)
            assert sketch.entries() == sorted(
                ((k, weights[k], counts[k], errors[k]) for k in weights),
                key=lambda row: (-(row[1] - row[3]), row[0]),
            )


class TestSketchWindowAccountant:
    def test_per_window_sketches_are_independent(self):
        acct = SketchWindowAccountant(window=1.0, capacity=4)
        acct.record(1, 0.5, 100)
        acct.record(2, 1.5, 200)
        assert acct.windows() == [0, 1]
        assert acct.sketch(0).total_weight == 100
        assert acct.sketch(1).total_weight == 200
        assert acct.top_k(2, 3) == []  # empty window

    def test_top_k_reports_guaranteed_bytes(self):
        acct = SketchWindowAccountant(window=1.0, capacity=2)
        acct.record(1, 0.1, 10)
        acct.record(2, 0.2, 20)
        acct.record(3, 0.3, 5)  # evicts 1, inherits floor 10
        shares = acct.top_k(0, 3)
        assert shares[0].flow_id == 2
        assert shares[0].bytes == 20
        # flow 3's reported bytes are its guarantee, not its estimate.
        assert shares[1].flow_id == 3
        assert shares[1].bytes == 5


class TestPrecisionAtK:
    def _shares(self, pairs):
        from repro.forensics.windows import ranked_shares

        return ranked_shares(
            {flow: [1, nbytes] for flow, nbytes in pairs}
        )

    def test_perfect_match(self):
        exact = self._shares([(1, 300), (2, 200), (3, 100)])
        assert precision_at_k(exact, exact, 2) == 1.0

    def test_miss_scores_fractionally(self):
        exact = self._shares([(1, 300), (2, 200), (3, 100)])
        approx = self._shares([(1, 300), (9, 250)])
        assert precision_at_k(exact, approx, 2) == 0.5

    def test_tie_tolerance(self):
        # flows 2 and 3 are tied at the k-th weight: either is a hit.
        exact = self._shares([(1, 300), (2, 100), (3, 100)])
        approx = self._shares([(1, 300), (3, 100)])
        assert precision_at_k(exact, approx, 2) == 1.0

    def test_empty_exact_is_vacuously_perfect(self):
        assert precision_at_k([], self._shares([(1, 10)]), 3) == 1.0


# ----------------------------------------------------------------------
# Burst hysteresis
# ----------------------------------------------------------------------
class TestBurstDetector:
    def test_hysteresis_opens_at_enter_closes_at_exit(self):
        det = BurstDetector(enter=10, exit=4)
        det.on_sample(0.0, 5)  # below enter: nothing
        det.on_sample(1.0, 10)  # opens
        assert det.open_start == 1.0
        det.on_sample(2.0, 7)  # between exit and enter: stays open
        det.on_sample(3.0, 12)  # new peak
        det.on_sample(4.0, 4)  # closes
        assert det.open_start is None
        episodes = det.finalize(10.0)
        assert len(episodes) == 1
        ep = episodes[0]
        assert (ep.start, ep.end) == (1.0, 4.0)
        assert (ep.peak, ep.peak_time) == (12, 3.0)
        assert ep.duration == 3.0

    def test_chatter_between_thresholds_is_one_episode(self):
        det = BurstDetector(enter=10, exit=2)
        for now, length in enumerate([10, 5, 11, 6, 12, 5, 2]):
            det.on_sample(float(now), length)
        assert len(det.finalize(10.0)) == 1

    def test_drops_charge_only_open_episodes(self):
        det = BurstDetector(enter=10, exit=4)
        det.on_drop(0.5, "tail_overflow")  # no episode yet: ignored
        det.on_sample(1.0, 10)
        det.on_drop(1.5, "tail_overflow")
        det.on_drop(1.6, "red_early")
        det.on_sample(2.0, 0)
        episodes = det.finalize(10.0)
        assert episodes[0].drops == 2
        assert episodes[0].drop_causes == {
            "red_early": 1,
            "tail_overflow": 1,
        }

    def test_open_episode_closes_at_finalize(self):
        det = BurstDetector(enter=10, exit=4)
        det.on_sample(1.0, 15)
        episodes = det.finalize(16.0)
        assert episodes[0].end == 16.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            BurstDetector(enter=0, exit=0)
        with pytest.raises(ValueError):
            BurstDetector(enter=5, exit=5)
        with pytest.raises(ValueError):
            BurstDetector(enter=5, exit=-1)


# ----------------------------------------------------------------------
# Loss-synchronization clustering and linkage
# ----------------------------------------------------------------------
class TestLossSyncDetector:
    def test_quorum_within_window_is_one_event(self):
        det = LossSyncDetector(n_flows=10, window=1.0, fraction=0.3)
        assert det.min_flows == 3
        for flow, t in [(1, 0.0), (2, 0.4), (3, 0.8)]:
            det.on_loss(flow, t)
        events = det.commit(math.inf)
        assert len(events) == 1
        assert events[0].flows == (1, 2, 3)
        assert (events[0].time, events[0].end) == (0.0, 0.8)
        assert events[0].fraction == pytest.approx(0.3)

    def test_sub_quorum_is_no_event(self):
        det = LossSyncDetector(n_flows=10, window=1.0, fraction=0.3)
        det.on_loss(1, 0.0)
        det.on_loss(2, 0.5)
        assert det.commit(math.inf) == []

    def test_repeat_cuts_by_one_flow_are_not_distinct(self):
        det = LossSyncDetector(n_flows=10, window=1.0, fraction=0.3)
        for t in (0.0, 0.2, 0.4, 0.6):
            det.on_loss(1, t)
        det.on_loss(2, 0.3)
        assert det.commit(math.inf) == []

    def test_separated_waves_are_separate_events(self):
        det = LossSyncDetector(n_flows=10, window=1.0, fraction=0.3)
        for flow, t in [(1, 0.0), (2, 0.1), (3, 0.2)]:
            det.on_loss(flow, t)
        for flow, t in [(4, 5.0), (5, 5.1), (6, 5.2)]:
            det.on_loss(flow, t)
        events = det.commit(math.inf)
        assert [e.flows for e in events] == [(1, 2, 3), (4, 5, 6)]

    def test_quorum_floor_is_two_flows(self):
        det = LossSyncDetector(n_flows=3, window=1.0, fraction=0.1)
        assert det.min_flows == 2

    def test_loss_states_are_the_multiplicative_cuts(self):
        assert LOSS_STATES == {"timeout", "fast_retransmit", "ecn_cut"}


class TestLinkBursts:
    def _sync(self, time, end, flows=(1, 2)):
        return SyncEvent(
            time=time, end=end, flows=flows, fraction=len(flows) / 10
        )

    def _episode(self, start, end):
        return BurstEpisode(start=start, end=end)

    def test_preceding_sync_links(self):
        sync = self._sync(1.0, 1.5)
        links = link_bursts(
            [self._episode(2.0, 3.0)], [sync], lookback=5.0, horizon=2.0
        )
        assert links == [("preceding", sync)]

    def test_latest_preceding_sync_wins(self):
        early, late = self._sync(0.5, 0.8), self._sync(1.0, 1.5)
        links = link_bursts(
            [self._episode(2.0, 3.0)], [early, late], lookback=5.0, horizon=2.0
        )
        assert links[0][1] is late

    def test_stale_sync_does_not_link(self):
        links = link_bursts(
            [self._episode(10.0, 11.0)],
            [self._sync(1.0, 1.5)],
            lookback=5.0,
            horizon=2.0,
        )
        assert links == [("", None)]

    def test_triggered_inside_and_within_horizon(self):
        inside = self._sync(2.5, 2.8)
        links = link_bursts(
            [self._episode(2.0, 3.0)], [inside], lookback=5.0, horizon=2.0
        )
        assert links == [("triggered", inside)]
        lagged = self._sync(4.5, 4.9)  # within end + horizon
        links = link_bursts(
            [self._episode(2.0, 3.0)], [lagged], lookback=5.0, horizon=2.0
        )
        assert links == [("triggered", lagged)]


# ----------------------------------------------------------------------
# Config plumbing
# ----------------------------------------------------------------------
class TestForensicsConfig:
    def test_params_resolve_defaults(self):
        config = paper_config(forensics=True)
        params = ForensicsParams.from_config(config)
        assert params.window == config.rtt_prop
        assert params.sync_window == config.rtt_prop
        assert params.sketch_capacity == 4 * config.forensics_top_k
        assert params.burst_enter == round(0.6 * config.buffer_capacity)
        assert params.burst_exit == round(0.3 * config.buffer_capacity)
        assert params.sync_fraction == 0.25

    def test_explicit_overrides_win(self):
        config = paper_config(
            forensics=True,
            forensics_window=0.25,
            forensics_sketch_capacity=64,
        )
        params = ForensicsParams.from_config(config)
        assert params.window == 0.25
        assert params.sketch_capacity == 64

    def test_exit_clamped_below_enter(self):
        # B = 2: 0.6 and 0.3 of it both round to 1 packet, so the exit
        # threshold is clamped to one packet below the entry threshold;
        # B = 1 rounds the entry threshold up to its floor of 1.
        params = ForensicsParams.from_config(
            paper_config(forensics=True, buffer_capacity=2)
        )
        assert (params.burst_enter, params.burst_exit) == (1, 0)
        params = ForensicsParams.from_config(
            paper_config(forensics=True, buffer_capacity=1)
        )
        assert (params.burst_enter, params.burst_exit) == (1, 0)

    def test_fluid_backend_rejected(self):
        # The capability table names the backend and the feature; the
        # hybrid backend's foreground flows are real packets, so
        # forensics is allowed there (tests/test_hybrid_properties.py).
        config = paper_config(backend="fluid", forensics=True)
        with pytest.raises(ValueError, match="burst forensics"):
            config.validate()

    def test_knob_range_validation(self):
        for overrides in [
            dict(forensics_window=-1.0),
            dict(forensics_top_k=0),
            dict(forensics_sketch_capacity=-1),
        ]:
            config = paper_config(forensics=True, **overrides)
            with pytest.raises(ValueError):
                config.validate()

    def test_knobs_are_digest_excluded(self):
        base = paper_config(**BASE)
        tweaked = base.with_(
            forensics=True,
            forensics_top_k=9,
            forensics_window=0.1,
            forensics_sketch_capacity=128,
        )
        assert tweaked.config_digest() == base.config_digest()
        # Observation-only knobs never bump the schema themselves; the
        # pin is >= so unrelated physics bumps (e.g. v5's hybrid
        # backend) don't trip it.
        assert CONFIG_SCHEMA_VERSION >= 4


# ----------------------------------------------------------------------
# Integration: the seeded droptail dumbbell
# ----------------------------------------------------------------------
class TestDroptailForensics:
    def test_bursts_detected_and_attributed(self, droptail_report):
        report = droptail_report.forensics
        assert report.n_bursts >= 3
        for burst in report.bursts:
            assert burst.episode.end > burst.episode.start
            assert burst.exact_top, "burst with no attributed traffic"
            shares = [s.share for s in burst.exact_top]
            assert shares == sorted(shares, reverse=True)

    def test_sketch_precision_gate(self, droptail_report):
        # The acceptance gate: the 20-counter sketch recovers the exact
        # top-5 with precision >= 0.9 across every burst's windows.
        report = droptail_report.forensics
        assert report.precision >= 0.9
        for burst in report.bursts:
            assert burst.precision >= 0.75  # no single catastrophic burst

    def test_sketch_is_genuinely_lossy(self, droptail_report):
        # The precision gate means nothing if the sketch never evicted:
        # capacity (20) < flows (40), so busy windows must saturate.
        report = droptail_report.forensics
        assert report.params.sketch_capacity < report.n_flows
        evictions = 0
        saturated = 0
        for index in report.sketch.windows():
            sketch = report.sketch.sketch(index)
            if len(sketch) == sketch.capacity:
                saturated += 1
            evictions += sum(1 for *_, e in sketch.entries() if e > 0)
        assert saturated > 0
        assert evictions > 0

    def test_every_droptail_burst_links_to_a_sync_event(
        self, droptail_report
    ):
        report = droptail_report.forensics
        assert report.n_sync_events > 0
        assert report.n_sync_linked == report.n_bursts
        for burst in report.bursts:
            assert burst.sync_relation in ("preceding", "triggered")
            assert not math.isnan(burst.sync_time)
            assert burst.sync_flows >= 2

    def test_metrics_flatten_the_report(self, droptail_report):
        report = droptail_report.forensics
        metrics = ScenarioMetrics.from_result(droptail_report)
        assert metrics.forensic_bursts == report.n_bursts
        assert metrics.forensic_sync_events == report.n_sync_events
        assert metrics.forensic_sync_linked == report.n_sync_linked
        assert metrics.forensic_precision_at_k == pytest.approx(
            report.precision
        )
        assert metrics.forensic_top_flow == report.top_flow
        assert 0 < metrics.forensic_burst_time_fraction <= 1
        assert 0 < metrics.forensic_top_flow_share < 1

    def test_render_mentions_every_burst(self, droptail_report):
        report = droptail_report.forensics
        text = report.render(top=3)
        assert "Burst episodes" in text
        assert "Loss-synchronization events" in text
        for i in range(report.n_bursts):
            assert f"Burst {i} culprits" in text

    def test_matches_golden_report(self, droptail_report, request):
        payload = droptail_report.forensics.as_dict()
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        path = GOLDEN_DIR / "forensics_reno_fifo_n40.json"
        if request.config.getoption("--update-goldens"):
            GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
            return
        assert path.exists(), (
            f"golden {path.name} missing; generate it with "
            "pytest tests/test_forensics.py --update-goldens"
        )
        golden = json.dumps(
            json.loads(path.read_text()), indent=2, sort_keys=True
        ) + "\n"
        assert text == golden, (
            "forensics report diverged from the golden (if intentional, "
            "rerun with --update-goldens)"
        )


# ----------------------------------------------------------------------
# Integration: the paper's smoothing claim, per episode
# ----------------------------------------------------------------------
class TestRedSmoothing:
    def test_red_shows_fewer_sync_linked_bursts(self):
        # Same load, physical headroom above max_th (at the paper's
        # buffer of 50, N=40 minimum windows alone overflow the buffer
        # and no AQM can desynchronize anything).
        base = paper_config(**BASE, forensics=True, buffer_capacity=100)
        fifo = run_scenario(base).forensics
        red = run_scenario(base.with_(queue="red")).forensics
        assert fifo.n_bursts > 0
        assert fifo.n_sync_linked == fifo.n_bursts  # droptail signature
        assert red.n_bursts < fifo.n_bursts
        assert red.n_sync_linked < fifo.n_sync_linked
        assert red.burst_time_fraction < fifo.burst_time_fraction


# ----------------------------------------------------------------------
# Integration: breadth (protocols, AQMs, export)
# ----------------------------------------------------------------------
class TestForensicsBreadth:
    @pytest.mark.parametrize(
        "protocol", ["tahoe", "reno", "newreno", "sack"]
    )
    @pytest.mark.parametrize("queue", ["red", "ared"])
    def test_protocol_aqm_matrix_runs(self, protocol, queue):
        config = paper_config(
            n_clients=8,
            duration=3.0,
            seed=2,
            protocol=protocol,
            queue=queue,
            forensics=True,
        )
        report = run_scenario(config).forensics
        assert report is not None
        assert report.n_bursts >= 0  # may legitimately be burst-free

    def test_obs_bundle_exports_forensics(self, tmp_path):
        config = paper_config(
            n_clients=12, duration=4.0, seed=3, forensics=True
        )
        result = run_scenario(config)
        assert result.obs is not None
        written = result.obs.export(str(tmp_path))
        names = {Path(p).name for p in written}
        assert "forensics.json" in names
        assert "forensic_attribution.jsonl" in names
        payload = json.loads((tmp_path / "forensics.json").read_text())
        assert payload["n_flows"] == 12
        rows = [
            json.loads(line)
            for line in (tmp_path / "forensic_attribution.jsonl")
            .read_text()
            .splitlines()
        ]
        assert {row["source"] for row in rows} == {"exact", "sketch"}

    def test_csv_export_format(self, tmp_path):
        config = paper_config(
            n_clients=12, duration=4.0, seed=3, forensics=True
        )
        result = run_scenario(config)
        result.obs.export(str(tmp_path), fmt="csv")
        header = (
            (tmp_path / "forensic_attribution.csv")
            .read_text()
            .splitlines()[0]
        )
        assert header.split(",")[:3] == ["time", "window", "source"]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestForensicsCli:
    def test_forensics_subcommand(self, capsys, tmp_path):
        json_path = tmp_path / "report.json"
        code = main(
            [
                "forensics",
                "--clients",
                "12",
                "--duration",
                "4",
                "--seed",
                "3",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Burst forensics" in out
        payload = json.loads(json_path.read_text())
        assert payload["n_flows"] == 12

    def test_run_forensics_flag(self, capsys):
        code = main(
            [
                "run",
                "--clients",
                "12",
                "--duration",
                "4",
                "--seed",
                "3",
                "--forensics",
            ]
        )
        assert code == 0
        assert "Burst forensics" in capsys.readouterr().out
