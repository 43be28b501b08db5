"""Unit tests for the RED and Adaptive RED gateways."""

import random

import pytest

from repro.net.packet import PacketFactory
from repro.net.red import AdaptiveREDQueue, REDParams, REDQueue


def make_packet(factory, seq=0, ecn=False):
    return factory.data(0, "a", "b", 1000, seqno=seq, now=0.0, ecn_capable=ecn)


def make_queue(**overrides):
    defaults = dict(min_th=5.0, max_th=15.0, max_p=0.1, weight=0.5)
    defaults.update(overrides)
    capacity = defaults.pop("capacity", 50)
    rng_seed = defaults.pop("seed", 1)
    return REDQueue(capacity, REDParams(**defaults), random.Random(rng_seed))


def fill(queue, n, factory, start_seq=0, now=0.0):
    admitted = 0
    for i in range(n):
        if queue.enqueue(make_packet(factory, start_seq + i), now):
            admitted += 1
    return admitted


class TestREDParams:
    def test_defaults_match_table1(self):
        params = REDParams()
        assert params.min_th == 10.0
        assert params.max_th == 40.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(weight=0.0),
            dict(weight=1.5),
            dict(min_th=-1.0),
            dict(min_th=10.0, max_th=10.0),
            dict(max_p=0.0),
            dict(max_p=1.5),
            dict(idle_packet_time=0.0),
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            REDParams(**kwargs).validate()


class TestREDQueue:
    def test_no_drops_below_min_threshold(self):
        queue = make_queue(weight=1.0)  # avg tracks instantaneous queue
        factory = PacketFactory()
        assert fill(queue, 5, factory) == 5
        assert queue.stats.drops == 0

    def test_average_tracks_queue_with_unit_weight(self):
        queue = make_queue(weight=1.0)
        factory = PacketFactory()
        fill(queue, 4, factory)
        # avg after 4 arrivals with w=1: equals queue length just before
        # each arrival, so 3 after the fourth.
        assert queue.avg == pytest.approx(3.0)

    def test_ewma_update(self):
        queue = make_queue(weight=0.25)
        factory = PacketFactory()
        queue.enqueue(make_packet(factory, 0), 0.0)  # avg = 0.75*0 + 0.25*0
        queue.enqueue(make_packet(factory, 1), 0.0)  # avg = 0.75*0 + 0.25*1
        assert queue.avg == pytest.approx(0.25)

    def test_forced_drop_above_max_threshold(self):
        queue = make_queue(weight=1.0, max_th=8.0)
        factory = PacketFactory()
        fill(queue, 9, factory)  # drive avg past max_th
        assert queue.avg >= 8.0
        before = queue.stats.drops
        assert not queue.enqueue(make_packet(factory, 99), 0.0)
        assert queue.stats.drops == before + 1

    def test_probabilistic_drops_between_thresholds(self):
        # Mid-band with max_p=1: p_b = (avg-min)/(max-min) ~ 0.5, and the
        # count correction pushes the effective probability higher, so a
        # run of arrivals must see plenty of early drops.
        queue = make_queue(weight=1.0, min_th=1.0, max_th=21.0, max_p=1.0)
        factory = PacketFactory()
        fill(queue, 11, factory)  # avg ~ 10.5 -> p_b ~ 0.48
        dropped = 0
        trials = 40
        for i in range(trials):
            if not queue.enqueue(make_packet(factory, 100 + i), 0.0):
                dropped += 1
        assert dropped >= trials * 0.3

    def test_drop_rate_scales_with_average(self):
        rng = random.Random(7)
        results = []
        for target in (6.0, 13.0):
            queue = REDQueue(
                1000,
                REDParams(min_th=5.0, max_th=15.0, max_p=0.5, weight=1.0),
                rng,
            )
            factory = PacketFactory()
            fill(queue, int(target), factory)
            drops = 0
            trials = 400
            for i in range(trials):
                if not queue.enqueue(make_packet(factory, 100 + i), 0.0):
                    drops += 1
                else:
                    queue.dequeue(0.0)  # hold the queue near the target
                    # re-add to keep length stable
                    queue._packets.append(make_packet(factory, 10_000 + i))
            results.append(drops / trials)
        assert results[1] > results[0]

    def test_physical_overflow_always_drops(self):
        queue = make_queue(capacity=3, weight=0.001)  # avg stays ~0
        factory = PacketFactory()
        fill(queue, 3, factory)
        assert not queue.enqueue(make_packet(factory, 10), 0.0)

    def test_idle_decay_reduces_average(self):
        queue = make_queue(weight=0.5, idle_packet_time=0.01)
        factory = PacketFactory()
        fill(queue, 6, factory)
        while queue.dequeue(1.0) is not None:
            pass
        avg_before = queue.avg
        assert avg_before > 0
        queue.enqueue(make_packet(factory, 50), 2.0)  # 1 s idle = 100 pkts
        assert queue.avg < avg_before * 0.01

    def test_ecn_marks_instead_of_dropping(self):
        # Drive the average past max_th: the (deterministic) forced drop
        # becomes a mark for an ECN-capable packet.
        queue = make_queue(weight=1.0, min_th=1.0, max_th=3.0, ecn=True)
        factory = PacketFactory()
        fill(queue, 5, factory)
        assert queue.avg >= 3.0
        packet = make_packet(factory, 10, ecn=True)
        assert queue.enqueue(packet, 0.0)
        assert packet.ecn_ce
        assert queue.stats.marks >= 1

    def test_ecn_ignores_non_capable_packets(self):
        queue = make_queue(weight=1.0, min_th=1.0, max_th=3.0, ecn=True)
        factory = PacketFactory()
        fill(queue, 5, factory)
        assert queue.avg >= 3.0
        packet = make_packet(factory, 10, ecn=False)
        assert not queue.enqueue(packet, 0.0)

    def test_count_spreading_forces_eventual_drop(self):
        # p_a = p_b / (1 - count*p_b): after 1/p_b admissions, p_a -> 1.
        queue = make_queue(
            weight=1.0, min_th=1.0, max_th=1000.0, max_p=0.05, capacity=10_000
        )
        factory = PacketFactory()
        fill(queue, 5, factory)
        admitted_run = 0
        for i in range(100):
            if queue.enqueue(make_packet(factory, 100 + i), 0.0):
                admitted_run += 1
            else:
                break
        assert admitted_run < 100


class TestAdaptiveRED:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            AdaptiveREDQueue(10, interval=0.0)

    def test_max_p_decreases_when_underutilized(self):
        queue = AdaptiveREDQueue(
            50,
            REDParams(min_th=5.0, max_th=15.0, max_p=0.1, weight=0.001),
            random.Random(1),
            interval=1.0,
        )
        factory = PacketFactory()
        # avg stays ~0 < min_th; crossing t=1, 2, ... should shrink max_p.
        queue.enqueue(make_packet(factory, 0), 0.5)
        queue.enqueue(make_packet(factory, 1), 3.5)
        assert queue.params.max_p < 0.1
        assert queue.adaptations >= 1

    def test_max_p_increases_when_overloaded(self):
        queue = AdaptiveREDQueue(
            100,
            REDParams(min_th=2.0, max_th=5.0, max_p=0.01, weight=0.5),
            random.Random(1),
            interval=1.0,
        )
        factory = PacketFactory()
        # With a lagging average the queue admits past max_th before the
        # forced-drop region engages, leaving avg strictly above max_th.
        fill(queue, 20, factory, now=0.5)
        assert queue.avg > 5.0
        queue.enqueue(make_packet(factory, 99), 1.5)  # adaptation point
        assert queue.params.max_p > 0.01

    def test_max_p_respects_bounds(self):
        queue = AdaptiveREDQueue(
            50,
            REDParams(min_th=5.0, max_th=15.0, max_p=0.002, weight=0.001),
            random.Random(1),
            interval=0.5,
            min_p=0.001,
        )
        factory = PacketFactory()
        queue.enqueue(make_packet(factory, 0), 10.0)  # many intervals pass
        assert queue.params.max_p >= 0.001
