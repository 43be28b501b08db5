"""Every config either runs or is refused up front, by name.

One Hypothesis property drawn from the config module's own value lists
(backends, protocols, queues, workloads, traffic models, engines) plus
the observers and the hybrid backend's knobs: each draw either
validates and then runs a short, small cell to a finite c.o.v., or
``validate()`` raises a ValueError that names what refuses it (the
backend or the engine) and the feature or field it refuses.  A config
that validates but then fails inside the engine, or a refusal that
names neither side, fails here.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ENGINES
from repro.experiments.config import (
    _BACKEND_CAPABILITIES,
    BACKENDS,
    PROTOCOLS,
    QUEUES,
    TRAFFIC,
    WORKLOADS,
    paper_config,
)
from repro.experiments.scenario import run_scenario

#: The observers a cell can switch on: the flight recorder's two knobs
#: and burst forensics.
OBSERVERS = {
    "none": {},
    "obs_trace": {"obs_trace": ("cwnd",)},
    "obs_profile": {"obs_profile": True},
    "forensics": {"forensics": True},
}

#: The hybrid backend's knobs; a draw sets at most one off its default.
HYBRID_KNOBS = (
    "hybrid_foreground_flows",
    "hybrid_background_flows",
    "hybrid_coupling_dt",
)

#: Every dimension a draw picks, with every value it can take.
DIMENSIONS = {
    "protocol": PROTOCOLS,
    "queue": QUEUES,
    "workload": WORKLOADS,
    "traffic": TRAFFIC,
    "pacing": (False, True),
    "engine": (None,) + ENGINES,
    "observer": tuple(OBSERVERS),
    "knob": (None,) + HYBRID_KNOBS,
}

#: The capability table's key for each dimension it restricts.
TABLE_KEYS = {
    "protocol": "protocols",
    "queue": "queues",
    "workload": "workloads",
    "traffic": "traffic",
}

#: How a refusal names the feature it refuses: a field name, or the
#: words its message uses for one.
FEATURE_WORDS = (
    "protocol",
    "queue",
    "workload",
    "traffic",
    "pacing",
    "flight recorder",
    "forensics",
    "engine=",
) + HYBRID_KNOBS

#: Refusals of a protocol/queue pair on every backend, not a capability
#: of one: (protocol, queue) -> the message fragment.
PAIR_RULES = {("reno_ecn", "fifo"): "reno_ecn requires an ECN-marking"}


@st.composite
def cells(draw):
    """A backend, a cell on its grid (the table's value lists; the
    defaults for the engine, the observers and the hybrid knobs), and
    then one dimension redrawn from every value it can take."""
    backend = draw(st.sampled_from(BACKENDS))
    caps = _BACKEND_CAPABILITIES[backend]
    cell = {"engine": None, "observer": "none", "knob": None}
    for dimension, key in TABLE_KEYS.items():
        cell[dimension] = draw(st.sampled_from(caps.get(key, DIMENSIONS[dimension])))
    cell["pacing"] = caps.get("pacing", True) and draw(st.booleans())
    stray = draw(st.sampled_from(tuple(DIMENSIONS)))
    cell[stray] = draw(st.sampled_from(DIMENSIONS[stray]))
    return backend, cell, draw(st.integers(1, 6)), draw(st.integers(1, 6))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(cells())
def test_every_draw_runs_or_is_refused_by_name(draw):
    backend, cell, n_clients, foreground = draw
    overrides = dict(
        backend=backend,
        protocol=cell["protocol"],
        queue=cell["queue"],
        workload=cell["workload"],
        traffic=cell["traffic"],
        pacing=cell["pacing"],
        engine=cell["engine"],
        n_clients=n_clients,
        duration=1.0,
        seed=3,
        **OBSERVERS[cell["observer"]],
    )
    if backend == "hybrid":
        # The default K = 10 exceeds every drawn client count.
        overrides["hybrid_foreground_flows"] = n_clients
    knob = cell["knob"]
    if knob is not None:
        overrides[knob] = {
            "hybrid_foreground_flows": min(foreground, n_clients),
            "hybrid_background_flows": 20,
            "hybrid_coupling_dt": 0.05,
        }[knob]
    config = paper_config(**overrides)
    try:
        config.validate()
    except ValueError as refusal:
        message = str(refusal)
        pair = PAIR_RULES.get((cell["protocol"], cell["queue"]))
        if pair is not None and pair in message:
            return
        assert backend in message or "engine" in message, message
        assert any(word in message for word in FEATURE_WORDS), message
        return
    result = run_scenario(config)
    assert math.isfinite(result.cov), config
