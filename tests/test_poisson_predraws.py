"""The batch engine's Poisson pre-draws against ``expovariate``.

A batch-engine flow draws its arrival gaps ahead of time, a chunk per
refill, from its own dedicated stream.  Whatever the chunking does, the
buffered arrival times must be, bit for bit, the running sums of
``expovariate(1 / mean_gap)`` on a twin generator -- what the object
engine's one-draw-per-tick ``PoissonSource`` produces -- and the two
generators must be left in the same state, so a later draw from either
stream sees the same next number.
"""

from __future__ import annotations

import random
from itertools import accumulate

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.batch import ARRIVAL_CHUNK, BatchScenario
from repro.experiments.config import paper_config

#: A random prefix of calls moving both twins mid-stream before the
#: flow draws: ``random()`` takes two 32-bit words, ``getrandbits(k)``
#: ceil(k / 32), so odd word offsets are reached as well as even ones.
_PREFIX_CALL = st.one_of(
    st.just(("random", 0)),
    st.tuples(st.just("getrandbits"), st.integers(min_value=1, max_value=200)),
)


def _advance(rng: random.Random, prefix) -> None:
    for call, bits in prefix:
        if call == "random":
            rng.random()
        else:
            rng.getrandbits(bits)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    mean_gap=st.floats(
        min_value=1e-300, max_value=1e300, allow_nan=False, allow_infinity=False
    ),
    prefix=st.lists(_PREFIX_CALL, max_size=6),
    extra=st.integers(min_value=0, max_value=ARRIVAL_CHUNK - 1),
)
def test_predraws_are_the_running_sums_of_expovariate(seed, mean_gap, prefix, extra):
    scenario = BatchScenario(paper_config(n_clients=1, duration=1.0, seed=1))
    flow = random.Random(seed)
    twin = random.Random(seed)
    _advance(flow, prefix)
    _advance(twin, prefix)
    # Start the flow afresh on the moved stream: mark what construction
    # drew as consumed, so the next peek refills from ``flow``.
    scenario._arr_rng[0] = flow
    scenario._mean_gap = mean_gap
    scenario._arr_last[0] = 0.0
    scenario._arr_pos[0] = len(scenario._arr_buf[0])

    drawn = []
    for _ in range(3 * ARRIVAL_CHUNK + extra):
        drawn.append(scenario._peek_arrival(0))
        scenario._arr_pos[0] += 1
    # The rest of the last refill is buffered too: hold it to the twin.
    drawn.extend(scenario._arr_buf[0][scenario._arr_pos[0]:])

    expected = []
    t = 0.0
    for _ in drawn:
        t += twin.expovariate(1.0 / mean_gap)
        expected.append(t)
    assert [x.hex() for x in drawn] == [x.hex() for x in expected]
    assert flow.getstate() == twin.getstate()


def test_every_predrawn_gap_is_libm_exact():
    """A running sum absorbs an ulp of a late gap, so the property above
    meets few of the values on which a vectorised log that is not
    correctly rounded differs from libm's.  Restarted from zero at
    every refill, a chunk's first times are bare gaps: over 2000 chunks
    such a log shows."""
    scenario = BatchScenario(paper_config(n_clients=1, duration=1.0, seed=1))
    flow = random.Random(2024)
    twin = random.Random(2024)
    scenario._arr_rng[0] = flow
    scenario._mean_gap = 1.0
    for _ in range(2000):
        scenario._arr_last[0] = 0.0
        scenario._arr_pos[0] = len(scenario._arr_buf[0])
        scenario._peek_arrival(0)
        drawn = list(scenario._arr_buf[0])
        assert drawn == list(accumulate(twin.expovariate(1.0) for _ in drawn))
    assert flow.getstate() == twin.getstate()
