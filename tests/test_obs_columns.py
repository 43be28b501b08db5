"""The flight recorder's columns carry the types the probes declare.

Each probe series declares one kind per column, time included: ``"d"``
for a float, ``"q"`` for an int, ``"O"`` for anything else (here the
state and drop-cause strings).  Every sample the probes record on
either engine, over the three batch-envelope senders, both gateways
and the hybrid backend's foreground, must already have that type:
an int published where ``"d"`` is declared would come back a float and
export as ``2.0`` where a row tuple kept it and wrote ``2``.

Stored that way, a sample costs a few machine words, not a tuple of
boxed numbers (111-121 B a sample when every sample was a row tuple).
"""

import gc
import tracemalloc

import pytest

from repro.experiments.config import paper_config
from repro.experiments.scenario import run_scenario
from repro.obs.probes import TRACE_CATEGORIES

#: Declared kind of each column, time first, per probe series.
DECLARED = {
    "cwnd": "ddd",
    "rtt": "dddd",
    "states": "dO",
    "occupancy": "dqd",
    "drops": "dqqO",
}
TYPES = {"d": float, "q": int, "O": str}

#: Congested enough for drops, window cuts and timeouts inside 20 s.
BASE = dict(n_clients=40, duration=20.0, seed=3, buffer_capacity=15)

CELLS = [
    pytest.param(
        dict(protocol=protocol, queue=queue, engine=engine),
        id=f"{protocol}-{queue}-{engine}",
    )
    for protocol in ("reno", "vegas", "reno_delack")
    for queue in ("fifo", "red")
    for engine in ("object", "batch")
] + [
    pytest.param(
        dict(backend="hybrid", hybrid_foreground_flows=5), id="hybrid-k5"
    )
]


def probe_series(obs):
    """``(attribute, series)`` for every series the probes own."""
    for probe in obs.flows.values():
        for attribute in ("cwnd", "rtt", "states"):
            yield attribute, getattr(probe, attribute)
    for attribute in ("occupancy", "drops"):
        yield attribute, getattr(obs.queue, attribute)


@pytest.mark.parametrize("overrides", CELLS)
def test_probe_columns_carry_their_declared_types(overrides):
    result = run_scenario(
        paper_config(**BASE, obs_trace=TRACE_CATEGORIES, **overrides)
    )
    obs = result.obs
    assert obs.n_drop_events and obs.n_rtt_samples
    states = {s for probe in obs.flows.values() for s in probe.states.column("state")}
    assert "timeout" in states and "fast_retransmit" in states
    assert len(obs.flows) == overrides.get("hybrid_foreground_flows", 40)
    for attribute, series in probe_series(obs):
        kinds = DECLARED[attribute]
        assert series.kinds == kinds, series.name
        for row in series.rows:
            assert len(row) == len(kinds), series.name
            for value, kind in zip(row, kinds):
                assert type(value) is TYPES[kind], (series.name, row)


def _held_after(engine, duration):
    """Traced memory a finished observed cell's result still holds, and
    how many samples its probes recorded."""
    gc.collect()
    tracemalloc.start()
    try:
        result = run_scenario(
            paper_config(
                n_clients=40,
                seed=3,
                duration=duration,
                obs_trace=TRACE_CATEGORIES,
                engine=engine,
            )
        )
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    obs = result.obs
    samples = (
        obs.n_cwnd_samples
        + obs.n_rtt_samples
        + obs.n_state_transitions
        + obs.n_queue_samples
        + obs.n_drop_events
    )
    return held, samples


@pytest.mark.parametrize("engine", ["object", "batch"])
def test_an_obs_sample_costs_machine_words(engine):
    """Doubling the horizon of an observed cell roughly doubles what its
    probes record; the memory added per extra sample must stay near the
    8 B a typed column spends per value (a row tuple of boxed floats
    cost 111 / 121 B on the object / batch engine)."""
    held_10, samples_10 = _held_after(engine, 10.0)
    held_20, samples_20 = _held_after(engine, 20.0)
    assert samples_20 - samples_10 > 10_000
    assert (held_20 - held_10) / (samples_20 - samples_10) < 40
