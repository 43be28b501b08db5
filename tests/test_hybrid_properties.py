"""Property and contract tests for the hybrid co-simulation backend.

Three layers:

* hypothesis properties for :class:`FluidTrajectory`, the piecewise-
  linear interpolant the foreground packet path samples between fluid
  RK4 endpoints -- interpolated values must stay inside the straddling
  knots' bounds, clamp at the filled end, and respect the physical
  ranges (queue >= 0, drop probability in [0, 1]);
* determinism and invariance: a hybrid run is bit-identical across
  repeated runs at the same seed and across every scheduler and engine
  value the code exports (the batch request is an accepted no-op: the
  foreground always runs the object engine);
* the per-backend capability table: every rejected feature combo
  raises a ValueError naming the backend and the feature, the hybrid
  backend accepts the observability features the pure fluid limit
  cannot support, and the batch-engine envelope still excludes the
  fluid backend.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hybrid_backend import FluidTrajectory, HybridScenario
from repro.engine import ENGINES
from repro.experiments.config import ScenarioConfig, paper_config
from repro.experiments.runner import cell_units
from repro.experiments.results import ScenarioMetrics
from repro.experiments.scenario import run_scenario
from repro.sim import SCHEDULERS

# ----------------------------------------------------------------------
# FluidTrajectory interpolation properties
# ----------------------------------------------------------------------

_knots = st.lists(
    st.tuples(
        st.floats(0.0, 200.0, allow_nan=False, allow_infinity=False),
        st.floats(-0.2, 1.2, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=40,
)


def _build(dt, knots):
    trajectory = FluidTrajectory(dt, len(knots))
    for q, p in knots:
        trajectory.append(q, p)
    return trajectory


@given(
    dt=st.floats(1e-3, 1.0, allow_nan=False, allow_infinity=False),
    knots=_knots,
    pos=st.floats(-2.0, 50.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=200, deadline=None)
def test_interpolant_stays_within_straddling_knots(dt, knots, pos):
    trajectory = _build(dt, knots)
    t = pos * dt
    q = trajectory.queue_at(t)
    p = trajectory.drop_prob_at(t)
    # Physical ranges hold for any query time, even when the raw knot
    # values wander outside them (RED's averaged p can touch 1.0 and
    # float noise can dip below 0).
    assert q >= 0.0
    assert 0.0 <= p <= 1.0
    # Identify the straddling knot pair the query falls between; knot 0
    # is the implicit (0, 0) pre-simulation state.
    qs = [0.0] + [knot_q for knot_q, _ in knots]
    idx = min(max(pos, 0.0), float(len(knots)))
    lo = min(int(idx), len(knots) - 1)
    seg_lo, seg_hi = qs[lo], qs[lo + 1]
    assert min(seg_lo, seg_hi) - 1e-9 <= q <= max(seg_lo, seg_hi) + 1e-9


@given(dt=st.floats(1e-3, 1.0, allow_nan=False, allow_infinity=False), knots=_knots)
@settings(max_examples=100, deadline=None)
def test_interpolant_exact_at_knots_and_clamped_past_end(dt, knots):
    trajectory = _build(dt, knots)
    assert trajectory.queue_at(0.0) == 0.0
    assert trajectory.drop_prob_at(-5.0 * dt) == 0.0
    for i, (q, p) in enumerate(knots, start=1):
        assert math.isclose(
            trajectory.queue_at(i * dt), max(q, 0.0), rel_tol=1e-9, abs_tol=1e-9
        )
    # Past the filled end the interpolant holds the last knot (the
    # coupler only queries inside the integrated window, but a clamp
    # beats an index error if a packet lands exactly on the boundary).
    last_q, last_p = knots[-1]
    assert trajectory.queue_at(1e6) == max(last_q, 0.0)
    assert trajectory.drop_prob_at(1e6) == min(max(last_p, 0.0), 1.0)


@given(
    dt=st.floats(1e-3, 1.0, allow_nan=False, allow_infinity=False),
    knots=_knots,
    pos=st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=100, deadline=None)
def test_partially_filled_trajectory_clamps_at_frontier(dt, knots, pos):
    """Queries beyond the last *appended* knot (not the allocated end)
    must clamp to the frontier value: the simulator can only race ahead
    of the fluid by less than one coupling interval, and during that
    window the freshest fluid state is the right answer."""
    trajectory = FluidTrajectory(dt, len(knots) + 10)
    for q, p in knots:
        trajectory.append(q, p)
    frontier_q = max(knots[-1][0], 0.0)
    # Offset by half a step so float rounding in t/dt cannot land the
    # query a ULP *before* the frontier knot (where interpolation --
    # correctly -- still applies).
    t_beyond = (len(knots) + 0.5 + pos) * dt
    assert trajectory.queue_at(t_beyond) == frontier_q


# ----------------------------------------------------------------------
# Determinism and scheduler/engine invariance
# ----------------------------------------------------------------------


def _hybrid_config(**overrides):
    defaults = dict(
        backend="hybrid",
        n_clients=20,
        hybrid_foreground_flows=5,
        duration=8.0,
        warmup=2.0,
        seed=3,
    )
    defaults.update(overrides)
    return paper_config(**defaults)


def test_hybrid_rerun_is_bit_identical():
    first = ScenarioMetrics.from_result(run_scenario(_hybrid_config()))
    second = ScenarioMetrics.from_result(run_scenario(_hybrid_config()))
    assert first == second
    assert first.backend == "hybrid"
    assert first.measured_flows == 5


@pytest.mark.parametrize("queue", ["fifo", "red"])
def test_hybrid_identical_across_scheduler_and_engine(queue):
    baseline = None
    for scheduler in SCHEDULERS:
        for engine in ENGINES:
            config = _hybrid_config(queue=queue, scheduler=scheduler, engine=engine)
            metrics = ScenarioMetrics.from_result(run_scenario(config))
            if baseline is None:
                baseline = metrics
            else:
                assert metrics == baseline, (
                    f"hybrid diverged under scheduler={scheduler} "
                    f"engine={engine}"
                )
    assert baseline.gateway_arrivals > 0


def test_hybrid_seed_changes_outcome():
    base = run_scenario(_hybrid_config())
    other = run_scenario(_hybrid_config(seed=4))
    assert base.gateway_arrivals != other.gateway_arrivals


def test_direct_runner_rejects_other_backends():
    with pytest.raises(ValueError, match="hybrid"):
        HybridScenario(paper_config(backend="packet", duration=1.0))


@pytest.mark.parametrize("backend", ["fluid", "hybrid"])
def test_duration_shorter_than_one_solver_step_is_rejected(backend):
    """Zero RK4 steps would leave every trajectory array empty, i.e.
    cov = mean_queue_length = nan: rejected before anything is built.
    (The bin is set so that the window passes ``validate()``, which
    wants a whole bin, and it is the solver that objects.)"""
    config = paper_config(
        backend=backend, n_clients=20, duration=0.01, bin_width=0.004
    )
    with pytest.raises(ValueError, match=f"{backend}.*duration 0.01"):
        run_scenario(config)


# ----------------------------------------------------------------------
# Capability table (per-backend validate() envelope)
# ----------------------------------------------------------------------

REJECTED = [
    # (backend, overrides, message fragment naming the feature)
    ("fluid", {"protocol": "tahoe"}, "does not support protocol"),
    ("fluid", {"queue": "drr"}, "does not support queue"),
    ("fluid", {"workload": "rpc"}, "does not support workload"),
    ("fluid", {"traffic": "pareto_onoff"}, "does not support traffic model"),
    ("fluid", {"pacing": True}, "does not support pacing"),
    ("fluid", {"obs_trace": ("cwnd",)}, "flight recorder"),
    ("fluid", {"obs_profile": True}, "flight recorder"),
    ("fluid", {"forensics": True}, "burst forensics"),
    ("hybrid", {"protocol": "sack"}, "does not support protocol"),
    ("hybrid", {"queue": "ared"}, "does not support queue"),
    ("hybrid", {"workload": "bsp"}, "does not support workload"),
    ("hybrid", {"traffic": "pareto_onoff"}, "does not support traffic model"),
    ("hybrid", {"pacing": True}, "does not support pacing"),
    ("hybrid", {"hybrid_foreground_flows": 0}, "at least 1"),
    ("hybrid", {"hybrid_foreground_flows": 21}, "cannot exceed n_clients"),
    ("hybrid", {"hybrid_background_flows": -1}, "non-negative"),
    ("hybrid", {"hybrid_coupling_dt": -0.1}, "non-negative"),
    # Off the hybrid backend nothing reads the hybrid knobs, and a set
    # one would move the digest of an unchanged cell.
    ("packet", {"hybrid_foreground_flows": 5}, "hybrid_foreground_flows is read only"),
    ("packet", {"hybrid_background_flows": 100}, "hybrid_background_flows is read only"),
    ("packet", {"hybrid_coupling_dt": 0.1}, "hybrid_coupling_dt is read only"),
    ("fluid", {"hybrid_foreground_flows": 5}, "hybrid_foreground_flows is read only"),
    ("fluid", {"hybrid_background_flows": 100}, "hybrid_background_flows is read only"),
    ("fluid", {"hybrid_coupling_dt": 0.1}, "hybrid_coupling_dt is read only"),
    # The window density lives on [1, advertised_window]: a one-packet
    # window is a zero-width grid (dw == 0).
    ("fluid", {"advertised_window": 1}, "fluid backend needs advertised_window"),
    ("hybrid", {"advertised_window": 1}, "hybrid backend needs advertised_window"),
]


@pytest.mark.parametrize(
    "backend,overrides,fragment",
    REJECTED,
    ids=[f"{b}-{next(iter(o))}" for b, o, _ in REJECTED],
)
def test_capability_table_rejections_name_the_feature(backend, overrides, fragment):
    config = paper_config(backend=backend, n_clients=20, **overrides)
    with pytest.raises(ValueError, match=fragment) as excinfo:
        config.validate()
    if fragment.startswith("does not support"):
        assert backend in str(excinfo.value)


@pytest.mark.parametrize(
    "overrides",
    [
        {"obs_trace": ("cwnd",)},
        {"obs_profile": True},
        {"forensics": True},
        {"engine": "batch"},
    ],
    ids=["obs_trace", "obs_profile", "forensics", "batch_engine"],
)
def test_hybrid_accepts_observability_and_batch(overrides):
    """The hybrid foreground flows are real packet flows, so the
    flight recorder and burst forensics attach to them; engine="batch"
    is accepted as a no-op (the foreground runs the object engine)."""
    paper_config(backend="hybrid", n_clients=20, **overrides).validate()


def test_fluid_batch_still_rejected():
    with pytest.raises(ValueError, match="packet backend"):
        paper_config(backend="fluid", engine="batch").validate()


def test_packet_backend_accepts_everything_fluid_rejects():
    for _, overrides, _ in REJECTED:
        if any(key.startswith("hybrid_") for key in overrides):
            continue
        paper_config(backend="packet", n_clients=20, **overrides).validate()


# ----------------------------------------------------------------------
# Hybrid config plumbing: digest, label, background count, cost lanes
# ----------------------------------------------------------------------


def test_hybrid_knobs_are_digest_included():
    base = _hybrid_config()
    assert (
        base.config_digest()
        != base.with_(hybrid_foreground_flows=6).config_digest()
    )
    assert (
        base.config_digest()
        != base.with_(hybrid_background_flows=500).config_digest()
    )
    assert (
        base.config_digest()
        != base.with_(hybrid_coupling_dt=0.05).config_digest()
    )
    # Execution strategy stays digest-excluded for hybrid too.
    assert (
        base.config_digest() == base.with_(engine="batch").config_digest()
    )
    # The packet twin leaves the hybrid knobs at their defaults, as
    # validate() requires off the hybrid backend.
    packet = base.with_(
        backend="packet", hybrid_foreground_flows=ScenarioConfig.hybrid_foreground_flows
    )
    packet.validate()
    assert base.config_digest() != packet.config_digest()


def test_hybrid_label_and_background_count():
    config = _hybrid_config()
    assert "~hybrid" in config.label
    assert config.hybrid_background_count == 15  # ambient remainder
    assert config.with_(hybrid_background_flows=999).hybrid_background_count == 999


def test_cost_model_hybrid_lane_scales_with_foreground_not_ambient():
    small = _hybrid_config(n_clients=100)
    huge = _hybrid_config(n_clients=100_000)
    assert cell_units(small) == cell_units(huge)
    assert cell_units(small) == small.duration * small.hybrid_foreground_flows
