"""What a small cell pays for besides its simulation.

``ScenarioResult.modulation`` is the offered-vs-transported report of
:func:`repro.core.modulation.modulation_report`, for every backend that
has per-flow counts; the oracle below holds it to a report built from
the result's own count series, field for field.
"""

from __future__ import annotations

import dataclasses
import math
import os
import random
import sys

import numpy as np
import pytest

from repro.core.modulation import modulation_report
from repro.engine.batch import BatchScenario
from repro.experiments.config import paper_config
from repro.experiments.scenario import run_scenario
from repro.sim.rng import RandomStreams

#: One cell per kind of result the packet machinery collects.
MODULATION_CELLS = {
    "udp-object": (dict(protocol="udp", n_clients=4, duration=3.0, seed=2), "object"),
    "reno-batch": (dict(protocol="reno", n_clients=4, duration=3.0, seed=2), "batch"),
    "rpc": (dict(workload="rpc", n_clients=4, duration=3.0, seed=2), "batch"),
    "hybrid-k5": (
        dict(backend="hybrid", n_clients=200, hybrid_foreground_flows=5, duration=2.0),
        "object",
    ),
}


def _fields(report):
    """Every field of a report, exact (``repr`` of a float is exact and
    keeps a NaN equal to itself)."""
    return repr(dataclasses.asdict(report))


class TestModulationOracle:
    @pytest.mark.parametrize("cell", sorted(MODULATION_CELLS))
    def test_report_is_built_from_the_results_counts(self, cell):
        overrides, engine = MODULATION_CELLS[cell]
        result = run_scenario(paper_config(**overrides))
        assert result.engine == engine
        reference = result.analytic_cov if math.isfinite(result.analytic_cov) else None
        expected = modulation_report(
            result.offered_bin_counts, result.bin_counts, reference
        )
        assert _fields(result.modulation) == _fields(expected)

    def test_fluid_result_has_none(self):
        result = run_scenario(paper_config(backend="fluid", n_clients=1000, duration=5.0))
        assert result.per_flow_bin_counts is None
        assert result.modulation is None


# ----------------------------------------------------------------------
# Work gates: counts of work done, the same on any host
# ----------------------------------------------------------------------

#: The ledger's ``grid_tiny1024`` shapes, ``(n_clients, duration)``.
GRID_SHAPES = ((2, 0.8), (6, 1.6), (3, 3.2), (8, 0.8), (2, 2.4), (4, 1.6))

#: Uniforms each flow's Poisson stream gives the batch engine, per
#: shape, on the ledger's seeds (cell ``i`` runs seed ``1 + i``): one
#: refill of what the flow can use before the horizon, a quarter more
#: and 16, where a refill of a whole ``ARRIVAL_CHUNK`` drew 256.
UNIFORMS_PER_FLOW = {
    (2, 0.8): (26,) * 2,
    (6, 1.6): (36,) * 6,
    (3, 3.2): (56,) * 3,
    (8, 0.8): (26,) * 8,
    (2, 2.4): (46,) * 2,
    (4, 1.6): (36,) * 4,
}

#: Python-level numpy calls of ``_collect`` on a 2-flow, 0.8-s batch
#: cell: the monitor's fold and column sums, the offered counter's
#: binning and the two c.o.v.s.  A modulation report built there and
#: the fold's ``np.pad`` made it 91.
COLLECT_NUMPY_CALLS = 14


class _CountingRandom(random.Random):
    """A stream that counts the 64-bit uniforms drawn through
    ``getrandbits`` (the batch engine's only call on a Poisson stream)."""

    uniforms = 0

    def getrandbits(self, k):
        self.uniforms += k // 64
        return super().getrandbits(k)


class TestWork:
    """Work gates, not time gates: a refill that draws a full chunk
    again, or a report built in ``_collect`` again, changes these counts
    on any host."""

    @pytest.mark.parametrize("index", range(len(GRID_SHAPES)))
    def test_uniforms_drawn_per_flow(self, index, monkeypatch):
        counting = {}
        stream = RandomStreams.stream

        def counted(self, name):
            rng = stream(self, name)
            if name.endswith("/poisson") and not isinstance(rng, _CountingRandom):
                twin = _CountingRandom()
                twin.setstate(rng.getstate())
                rng = self._streams[name] = counting[name] = twin
            return rng

        monkeypatch.setattr(RandomStreams, "stream", counted)
        n_clients, duration = GRID_SHAPES[index]
        config = paper_config(n_clients=n_clients, duration=duration, seed=1 + index)
        assert config.resolved_engine() == "batch"
        BatchScenario(config).run()
        drawn = tuple(counting[f"client-{i}/poisson"].uniforms for i in range(n_clients))
        assert drawn == UNIFORMS_PER_FLOW[GRID_SHAPES[index]]

    def test_numpy_calls_of_collect(self):
        scenario = BatchScenario(paper_config(n_clients=2, duration=0.8, seed=1))
        scenario._execute()
        called = []

        def profile(frame, event, arg):
            if event == "call":
                called.append(frame.f_code.co_filename)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            scenario._collect()
        finally:
            sys.setprofile(previous)
        numpy_dir = os.path.dirname(np.__file__) + os.sep
        assert sum(path.startswith(numpy_dir) for path in called) == COLLECT_NUMPY_CALLS
