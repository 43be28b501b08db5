"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cov import FOLD_SIZE, BinCounter, bin_counts, coefficient_of_variation
from repro.core.selfsimilar import aggregate_counts
from repro.core.theory import poisson_aggregate_cov
from repro.net.monitor import ArrivalMonitor
from repro.net.packet import PacketFactory
from repro.net.queues import DropTailQueue
from repro.sim.engine import Simulator
from repro.sim.rng import derive_seed
from repro.analysis.timeseries import sample_step_series


# ----------------------------------------------------------------------
# Simulator: event ordering
# ----------------------------------------------------------------------
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=50
    )
)
def test_events_always_execute_in_nondecreasing_time_order(delays):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=30,
    ),
    until=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_run_until_never_executes_future_events(delays, until):
    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda d=delay: fired.append(d))
    sim.run(until=until)
    assert all(d <= until for d in fired)
    assert sim.now == max([until] + [d for d in fired])


# ----------------------------------------------------------------------
# Binning: conservation and cov invariants
# ----------------------------------------------------------------------
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=99.9, allow_nan=False),
        min_size=0,
        max_size=200,
    ),
    width=st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
)
def test_bin_counts_conserve_events_in_window(times, width):
    counts = bin_counts(times, width, t_start=0.0, t_end=100.0)
    n_bins = int(100.0 / width)
    in_window = sum(1 for t in times if t < n_bins * width)
    assert counts.sum() == in_window
    assert (counts >= 0).all()


@st.composite
def _counter_run(draw):
    """A window ``[t_start, t_end)`` that need not hold whole bins, and
    the add/extend calls to replay into a counter over it.  Times fall
    inside and outside the window and on the float neighbours of its
    edges; one call in a few records more than a fold's worth."""
    width = draw(st.floats(min_value=0.01, max_value=2.0))
    t_start = draw(st.floats(min_value=0.0, max_value=50.0))
    n_bins = draw(st.integers(min_value=0, max_value=30))
    window_end = t_start + n_bins * width
    t_end = window_end + draw(st.floats(min_value=0.0, max_value=0.999)) * width
    edges = []
    for edge in (t_start, window_end, t_end):
        edges += [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf)]
    times = st.one_of(
        st.sampled_from(edges),
        st.floats(min_value=max(t_start - width, 0.0), max_value=t_end + width),
    )
    calls = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("add"),
                    times,
                    st.sampled_from([1, 1, 2, 7, FOLD_SIZE + 3]),
                ),
                st.tuples(st.just("extend"), st.lists(times, max_size=20)),
            ),
            max_size=12,
        )
    )
    return width, t_start, t_end, calls


@settings(max_examples=60, deadline=None)
@given(run=_counter_run())
def test_bin_counter_is_bin_counts_of_every_time_recorded(run):
    width, t_start, t_end, calls = run
    counter = BinCounter(width, t_start, t_end)
    recorded = []
    for call in calls:
        if call[0] == "add":
            _, time, n = call
            counter.add(time, n)
            recorded += [time] * n
        else:
            counter.extend(call[1])
            recorded += call[1]
        assert len(counter.pending) < FOLD_SIZE
    expected = bin_counts(recorded, width, t_start, t_end)
    assert counter.counts().tolist() == expected.tolist()
    assert counter.counts().dtype == expected.dtype


@settings(max_examples=60, deadline=None)
@given(run=_counter_run())
def test_arrival_monitor_rows_are_bin_counts_of_each_flow(run):
    """The same calls as gateway arrivals, call ``i`` from flow
    ``i % 3``: row ``f`` is ``bin_counts`` of flow ``f``'s times, and the
    aggregate is the column sums."""
    width, t_start, t_end, calls = run
    monitor = ArrivalMonitor(width, t_start, t_end)
    factory = PacketFactory()
    recorded = {0: [], 1: [], 2: []}
    for index, call in enumerate(calls):
        flow = index % 3
        packet = factory.data(flow, "a", "b", 1000, seqno=0, now=0.0)
        times = [call[1]] * call[2] if call[0] == "add" else call[1]
        for time in times:
            monitor.on_packet(packet, time)
        recorded[flow] += times
    rows = monitor.flow_counts()
    for flow, times in recorded.items():
        expected = bin_counts(times, width, t_start, t_end)
        row = rows[flow] if flow < len(rows) else np.zeros_like(expected)
        assert row.tolist() == expected.tolist()
    assert monitor.counts().tolist() == bin_counts(
        recorded[0] + recorded[1] + recorded[2], width, t_start, t_end
    ).tolist()


@given(
    counts=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=100)
)
def test_cov_nonnegative_and_zero_iff_constant(counts):
    value = coefficient_of_variation(counts)
    assert value >= 0.0
    if len(set(counts)) == 1:
        assert value == 0.0


@given(
    counts=st.lists(st.integers(min_value=0, max_value=1000), min_size=2, max_size=100),
    scale=st.integers(min_value=1, max_value=50),
)
def test_cov_scale_invariant(counts, scale):
    base = coefficient_of_variation(counts)
    scaled = coefficient_of_variation([scale * c for c in counts])
    assert math.isclose(base, scaled, rel_tol=1e-9, abs_tol=1e-12)


@given(
    counts=st.lists(st.integers(min_value=0, max_value=100), min_size=4, max_size=256),
    factor=st.integers(min_value=1, max_value=8),
)
def test_aggregation_conserves_mass_over_whole_groups(counts, factor):
    aggregated = aggregate_counts(counts, factor)
    n_groups = len(counts) // factor
    assert aggregated.sum() == sum(counts[: n_groups * factor])


@given(
    n=st.integers(min_value=1, max_value=1000),
    rate=st.floats(min_value=0.01, max_value=1000.0, allow_nan=False),
    width=st.floats(min_value=0.001, max_value=100.0, allow_nan=False),
)
def test_poisson_cov_positive_and_clt_monotone(n, rate, width):
    cov_n = poisson_aggregate_cov(n, rate, width)
    cov_2n = poisson_aggregate_cov(2 * n, rate, width)
    assert cov_n > 0
    assert cov_2n < cov_n
    assert math.isclose(cov_2n, cov_n / math.sqrt(2), rel_tol=1e-9)


# ----------------------------------------------------------------------
# Queues: capacity and conservation
# ----------------------------------------------------------------------
@given(
    capacity=st.integers(min_value=1, max_value=20),
    operations=st.lists(st.booleans(), min_size=1, max_size=200),
)
def test_droptail_capacity_and_conservation(capacity, operations):
    queue = DropTailQueue(capacity)
    factory = PacketFactory()
    seq = 0
    dequeued = 0
    for is_enqueue in operations:
        if is_enqueue:
            queue.enqueue(factory.data(0, "a", "b", 100, seqno=seq, now=0.0), 0.0)
            seq += 1
        else:
            if queue.dequeue(0.0) is not None:
                dequeued += 1
        assert len(queue) <= capacity
    stats = queue.stats
    assert stats.arrivals == stats.departures + stats.drops + len(queue)
    assert stats.departures == dequeued


@given(
    packets=st.lists(st.integers(min_value=1, max_value=9999), min_size=1, max_size=50)
)
def test_droptail_preserves_fifo_order(packets):
    queue = DropTailQueue(len(packets))
    factory = PacketFactory()
    for seq in packets:
        queue.enqueue(factory.data(0, "a", "b", 100, seqno=seq, now=0.0), 0.0)
    out = []
    while True:
        packet = queue.dequeue(0.0)
        if packet is None:
            break
        out.append(packet.seqno)
    assert out == packets


# ----------------------------------------------------------------------
# RNG: determinism
# ----------------------------------------------------------------------
@given(seed=st.integers(min_value=0, max_value=2**31), name=st.text(max_size=30))
def test_derive_seed_deterministic_and_64bit(seed, name):
    a = derive_seed(seed, name)
    assert a == derive_seed(seed, name)
    assert 0 <= a < 2**64


# ----------------------------------------------------------------------
# Step series sampling
# ----------------------------------------------------------------------
@given(
    log=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
        ),
        max_size=30,
    ).map(lambda pairs: sorted(pairs, key=lambda p: p[0])),
    queries=st.lists(
        st.floats(min_value=-10.0, max_value=110.0, allow_nan=False), max_size=30
    ),
)
def test_sampled_values_come_from_log_or_initial(log, queries):
    initial = 42.0
    values = sample_step_series(log, queries, initial=initial)
    allowed = {initial} | {v for _, v in log}
    assert all(v in allowed for v in values)
