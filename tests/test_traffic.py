"""Unit tests for the traffic generators and the offered-traffic counts."""

import random

import numpy as np
import pytest

from repro.core.cov import BinCounter
from repro.net.packet import PacketFactory
from repro.sim.engine import Simulator
from repro.traffic.base import TrafficSource
from repro.traffic.cbr import CbrSource
from repro.traffic.onoff import ParetoOnOffSource, pareto_scale_for_mean, pareto_variate
from repro.traffic.poisson import PoissonSource
from repro.transport.udp import UdpSender

from tests.helpers import CaptureNode


def make_sender():
    sim = Simulator()
    node = CaptureNode(sim)
    sender = UdpSender(sim, node, 0, "server", PacketFactory())
    return sim, node, sender


class TestCbr:
    def test_exact_packet_count(self):
        sim, node, sender = make_sender()
        source = CbrSource(sim, sender, gap=0.1)
        source.start()
        sim.run(until=1.05)
        assert source.generated == 10
        assert len(node.transmitted) == 10

    def test_rate_property(self):
        sim, _node, sender = make_sender()
        assert CbrSource(sim, sender, gap=0.25).rate == 4.0

    def test_invalid_gap(self):
        sim, _node, sender = make_sender()
        with pytest.raises(ValueError):
            CbrSource(sim, sender, gap=0.0)

    def test_start_at_offsets_generation(self):
        sim, node, sender = make_sender()
        CbrSource(sim, sender, gap=0.1).start(at=5.0)
        sim.run(until=4.9)
        assert len(node.transmitted) == 0
        sim.run(until=6.05)
        assert len(node.transmitted) == 10

    def test_stop_at_halts_generation(self):
        sim, node, sender = make_sender()
        CbrSource(sim, sender, gap=0.1).start(stop_at=0.55)
        sim.run(until=10.0)
        assert len(node.transmitted) == 5

    def test_double_start_raises(self):
        sim, _node, sender = make_sender()
        source = CbrSource(sim, sender, gap=0.1)
        source.start()
        with pytest.raises(RuntimeError):
            source.start()


class TestPoisson:
    def test_mean_rate_statistically(self):
        sim, _node, sender = make_sender()
        source = PoissonSource(sim, sender, random.Random(1), mean_gap=0.01)
        source.start()
        sim.run(until=100.0)
        rate = source.generated / 100.0
        assert rate == pytest.approx(100.0, rel=0.05)

    def test_deterministic_given_rng(self):
        counts = []
        for _ in range(2):
            sim, _node, sender = make_sender()
            source = PoissonSource(sim, sender, random.Random(7), mean_gap=0.1)
            source.start()
            sim.run(until=10.0)
            counts.append(source.generated)
        assert counts[0] == counts[1]

    def test_exponential_gaps_memoryless_cov(self):
        # The c.o.v. of exponential inter-arrival times is 1.
        sim, _node, sender = make_sender()
        source = PoissonSource(sim, sender, random.Random(3), mean_gap=0.01)
        times = []
        source.add_hook(lambda t, n: times.append(t))
        source.start()
        sim.run(until=50.0)
        gaps = np.diff(times)
        assert gaps.std() / gaps.mean() == pytest.approx(1.0, abs=0.1)

    def test_invalid_gap(self):
        sim, _node, sender = make_sender()
        with pytest.raises(ValueError):
            PoissonSource(sim, sender, random.Random(0), mean_gap=-1.0)

    def test_rate_property(self):
        sim, _node, sender = make_sender()
        assert PoissonSource(sim, sender, random.Random(0), mean_gap=0.1).rate == 10.0


class TestPareto:
    def test_scale_for_mean_formula(self):
        # Pareto(scale, shape) mean = shape*scale/(shape-1).
        scale = pareto_scale_for_mean(mean=3.0, shape=1.5)
        assert 1.5 * scale / 0.5 == pytest.approx(3.0)

    def test_scale_requires_shape_above_one(self):
        with pytest.raises(ValueError):
            pareto_scale_for_mean(1.0, 1.0)
        with pytest.raises(ValueError):
            pareto_scale_for_mean(-1.0, 1.5)

    def test_variate_at_least_scale(self):
        rng = random.Random(0)
        assert all(pareto_variate(rng, 2.0, 1.5) >= 2.0 for _ in range(100))

    def test_variate_sample_mean(self):
        rng = random.Random(4)
        scale = pareto_scale_for_mean(1.0, 2.5)  # finite variance
        samples = [pareto_variate(rng, scale, 2.5) for _ in range(20000)]
        assert np.mean(samples) == pytest.approx(1.0, rel=0.1)

    def test_onoff_alternates_and_emits_at_peak_rate(self):
        sim, node, sender = make_sender()
        source = ParetoOnOffSource(
            sim,
            sender,
            random.Random(2),
            peak_gap=0.01,
            mean_on=0.5,
            mean_off=0.5,
            shape_on=1.5,
            shape_off=1.5,
        )
        source.start()
        sim.run(until=60.0)
        assert source.on_periods > 5
        # Long-run rate must sit between 0 and the peak rate.
        rate = source.generated / 60.0
        assert 0 < rate < 100.0

    def test_invalid_peak_gap(self):
        sim, _node, sender = make_sender()
        with pytest.raises(ValueError):
            ParetoOnOffSource(sim, sender, random.Random(0), peak_gap=0.0)


class TestHooksAndRecorder:
    def test_hooks_called_per_generation(self):
        sim, _node, sender = make_sender()
        source = CbrSource(sim, sender, gap=0.5)
        calls = []
        source.add_hook(lambda t, n: calls.append((t, n)))
        source.start()
        sim.run(until=1.6)
        assert calls == [(0.5, 1), (1.0, 1), (1.5, 1)]

    def test_recorder_counts_and_bins(self):
        sim, _node, sender = make_sender()
        source = CbrSource(sim, sender, gap=0.25)
        counter = BinCounter(1.0, 0.0, 2.0)
        source.add_hook(counter.add)
        source.start()
        sim.run(until=2.1)
        assert source.generated == 8
        # t=0.25..0.75 and 1.0..1.75; t=2.0 is past the window.
        assert list(counter.counts()) == [3, 4]

    def test_recorder_respects_start_time(self):
        sim, _node, sender = make_sender()
        source = CbrSource(sim, sender, gap=0.25)
        counter = BinCounter(0.5, 1.0, 2.5)
        source.add_hook(counter.add)
        source.start()
        sim.run(until=2.1)
        # Generations at 1.0, 1.25, 1.5, 1.75, 2.0 (t >= t_start).
        assert list(counter.counts()) == [2, 2, 1]

    def test_recorder_multiple_sources_aggregate(self):
        sim, node, sender = make_sender()
        counter = BinCounter(1.0, 0.0, 2.0)
        for gap in (0.5, 0.25):
            source = CbrSource(sim, sender, gap=gap)
            source.add_hook(counter.add)
            source.start()
        sim.run(until=1.0)
        assert list(counter.counts()) == [4, 2]  # 2 + 4, two of them at 1.0

    def test_recorder_invalid_bin_width(self):
        with pytest.raises(ValueError):
            BinCounter(0.0, 0.0, 1.0)

    def test_base_next_gap_abstract(self):
        sim, _node, sender = make_sender()
        source = TrafficSource(sim, sender)
        with pytest.raises(NotImplementedError):
            source._next_gap()
