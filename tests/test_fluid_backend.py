"""Property and integration tests for the mean-field fluid backend.

The solver-level tests pin the mathematical invariants of the ODE
system (probability-mass conservation, monotone throughput in loss
rate, the Vegas fixed point matching the closed forms); the
integration tests pin the backend plumbing (config digest, validation,
ScenarioResult/ScenarioMetrics shape, cost-model lanes, run-log
tagging).  Agreement with the packet engine is a separate suite:
tests/test_fluid_differential.py.
"""

import math
import os
import sys

import numpy as np
import pytest

import repro
from repro.core.fluid_backend import FluidSolver, run_fluid_scenario
from repro.core.theory import vegas_equilibrium_queue, vegas_equilibrium_window
from repro.experiments.config import CONFIG_SCHEMA_VERSION, paper_config
from repro.experiments.runner import cell_units
from repro.experiments.results import ScenarioMetrics
from repro.experiments.runlog import RunLog, summarize_runlog
from repro.experiments.scenario import run_scenario


def fluid_config(**overrides):
    defaults = dict(
        protocol="reno",
        queue="fifo",
        backend="fluid",
        n_clients=50,
        duration=30.0,
        warmup=5.0,
    )
    defaults.update(overrides)
    return paper_config(**defaults)


class TestMassConservation:
    def test_rhs_conserves_probability_mass(self):
        """sum(dm) + dz == 0 for arbitrary (valid) states: advection,
        halving redistribution, and the timeout pipeline only move mass
        around, never create or destroy it."""
        solver = FluidSolver(paper_config(protocol="reno", queue="fifo"), 200)
        rng = np.random.default_rng(7)
        for trial in range(5):
            z = float(rng.uniform(0.0, 0.3))
            m = rng.random(solver.M)
            m = m / m.sum() * (1.0 - z)
            solver._to_return = float(rng.uniform(0.0, 0.02))
            q = float(rng.uniform(0.0, solver.B))
            dm, dz, *_ = solver.rhs(m, z, q, q * 0.8, 0.08, q * 0.9)
            assert abs(float(dm.sum()) + dz) < 1e-12

    @pytest.mark.parametrize("protocol,queue", [
        ("reno", "fifo"), ("reno", "red"), ("vegas", "fifo"), ("vegas", "red"),
    ])
    def test_full_run_stays_normalized(self, protocol, queue):
        solver = FluidSolver(
            paper_config(protocol=protocol, queue=queue, duration=20.0), 200
        )
        traj = solver.run()
        assert solver._final_m.sum() + solver._final_z == pytest.approx(1.0, abs=1e-9)
        assert float(solver._final_m.min()) >= 0.0
        assert 0.0 <= solver._final_z <= 1.0
        # The timeout fraction is a fraction at every step, too.
        assert float(traj["z"].min()) >= 0.0
        assert float(traj["z"].max()) <= 1.0


PROTOCOL_QUEUE = [
    ("reno", "fifo"), ("reno", "red"), ("vegas", "fifo"), ("vegas", "red"),
]


def run_bytes(solver: FluidSolver, traj) -> dict:
    """Every trajectory array and the final ``(m, z)`` as bytes, copied
    now, so a later run on the same solver cannot rewrite them."""
    got = {key: value.tobytes() for key, value in traj.items()}
    got["m"] = solver._final_m.tobytes()
    got["z"] = np.float64(solver._final_z).tobytes()
    return got


def rhs_bytes(solver: FluidSolver) -> list:
    """``rhs()`` on a fixed random state, as bytes."""
    rng = np.random.default_rng(3)
    m = rng.random(solver.M)
    m = m / m.sum() * 0.9
    solver._to_return = 0.01
    q = float(rng.uniform(0.0, solver.B))
    dm, *scalars = solver.rhs(m, 0.1, q, q * 0.8, 0.08, q * 0.9)
    scalars += [solver._to_entry, solver._tau_now]
    return [dm.tobytes()] + [np.float64(x).tobytes() for x in scalars]


class TestRunState:
    """Nothing a solver keeps between runs reaches the next one: a
    second ``run()``, a ``begin()`` after a partial run and a ``rhs()``
    after a run all give a fresh solver's bytes."""

    @staticmethod
    def solver(protocol, queue):
        return FluidSolver(
            paper_config(protocol=protocol, queue=queue, duration=20.0), 200
        )

    @pytest.mark.parametrize("protocol,queue", PROTOCOL_QUEUE)
    def test_run_twice_matches_a_fresh_solver(self, protocol, queue):
        fresh = self.solver(protocol, queue)
        want = run_bytes(fresh, fresh.run())
        solver = self.solver(protocol, queue)
        assert run_bytes(solver, solver.run()) == want
        assert run_bytes(solver, solver.run()) == want

    @pytest.mark.parametrize("protocol,queue", PROTOCOL_QUEUE)
    def test_begin_after_a_partial_run_matches_a_fresh_solver(self, protocol, queue):
        fresh = self.solver(protocol, queue)
        want = run_bytes(fresh, fresh.run())
        solver = self.solver(protocol, queue)
        solver.begin()
        for _ in range(solver.steps // 3):
            solver.step_once()
        solver.begin()
        while solver.step_index < solver.steps:
            solver.step_once()
        assert run_bytes(solver, solver.trajectory()) == want

    @pytest.mark.parametrize("protocol,queue", PROTOCOL_QUEUE)
    def test_rhs_is_the_same_before_and_after_a_run(self, protocol, queue):
        solver = self.solver(protocol, queue)
        before = rhs_bytes(solver)
        solver.run()
        assert rhs_bytes(solver) == before
        fresh = self.solver(protocol, queue)
        assert rhs_bytes(fresh) == before


#: The Python-level calls one ``step_once()`` makes at step 201 of an
#: N = 10^5, 30-s solver, as (into ``repro``, into numpy's Python code):
#: the step, its bound kernel, then ``loss_probability`` and its
#: ``_smoothstep`` once per stage, plus one ``rates()`` for Vegas's
#: feedback.  Before the kernel was bound the same step made 14-15 and
#: 7-12 (``ndarray.sum``/``.mean``/``.any`` run numpy's ``_methods.py``).
STEP_CALLS = {
    ("reno", "fifo"): (10, 0),
    ("reno", "red"): (10, 0),
    ("vegas", "fifo"): (11, 0),
    ("vegas", "red"): (11, 0),
}


class TestStepWork:
    """A work gate, not a time gate: a helper call or a numpy wrapper
    slipped back into the step changes these counts on any host."""

    @pytest.mark.parametrize("protocol,queue", PROTOCOL_QUEUE)
    def test_python_calls_of_one_step(self, protocol, queue):
        solver = FluidSolver(
            paper_config(protocol=protocol, queue=queue, duration=30.0), 100_000
        )
        solver.begin()
        for _ in range(200):
            solver.step_once()
        called = []

        def profile(frame, event, arg):
            if event == "call":
                called.append(frame.f_code.co_filename)

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            solver.step_once()
        finally:
            sys.setprofile(previous)
        repro_dir = os.path.dirname(repro.__file__) + os.sep
        numpy_dir = os.path.dirname(np.__file__) + os.sep
        counts = tuple(
            sum(path.startswith(prefix) for path in called)
            for prefix in (repro_dir, numpy_dir)
        )
        assert counts == STEP_CALLS[protocol, queue]


class TestMonotoneThroughput:
    def test_throughput_decreases_in_forced_loss(self):
        """With the queue coupling bypassed (loss_override) and the link
        uncongested, higher loss probability must mean lower mean
        windows and strictly less throughput -- the fluid analogue of
        the Mathis square-root law's direction."""
        throughputs = []
        for p in (0.02, 0.05, 0.1, 0.2):
            solver = FluidSolver(
                paper_config(protocol="reno", queue="fifo", duration=60.0, warmup=10.0),
                20,
                loss_override=p,
            )
            summary = solver.summarize(solver.run(), 0.404)
            throughputs.append(summary["throughput_pps"])
        assert all(
            earlier > later
            for earlier, later in zip(throughputs, throughputs[1:])
        ), f"throughput not monotone in loss: {throughputs}"


class TestVegasFixedPoint:
    @pytest.fixture(scope="class")
    def trajectory(self):
        # 25 effectively backlogged Vegas flows: fair rate 15 pps each,
        # equilibrium backlog between alpha and beta packets per flow.
        solver = FluidSolver(
            paper_config(
                protocol="vegas", queue="fifo", mean_gap=0.01,
                duration=120.0, warmup=60.0,
            ),
            25,
        )
        return solver, solver.run()

    def test_queue_parks_in_closed_form_band(self, trajectory):
        solver, traj = trajectory
        steady = traj["q"][traj["t"] >= solver.warmup]
        q_lo, q_hi = vegas_equilibrium_queue(25, alpha=1.0, beta=3.0)
        assert q_lo - 2.0 <= float(steady.mean()) <= min(q_hi, solver.B) + 2.0

    def test_window_matches_closed_form_band(self, trajectory):
        solver, traj = trajectory
        steady = traj["w"][traj["t"] >= solver.warmup]
        fair_rate = solver.C / 25
        w_lo, w_hi = vegas_equilibrium_window(
            fair_rate, solver.rtt_prop, alpha=1.0, beta=3.0
        )
        assert w_lo - 0.5 <= float(steady.mean()) <= w_hi + 0.5

    def test_equilibrium_is_nearly_lossless(self, trajectory):
        solver, traj = trajectory
        steady = traj["p"][traj["t"] >= solver.warmup]
        assert float(steady.mean()) < 0.04


class TestBackendConfig:
    def test_backend_changes_digest(self):
        packet = paper_config()
        fluid = packet.with_(backend="fluid")
        assert packet.config_digest() != fluid.config_digest()

    def test_schema_version_bumped_for_backend(self):
        assert CONFIG_SCHEMA_VERSION >= 4
        assert paper_config().digest_payload()["backend"] == "packet"

    def test_label_marks_fluid_runs(self):
        assert "fluid" in fluid_config().label
        assert "fluid" not in paper_config().label

    @pytest.mark.parametrize("overrides", [
        dict(protocol="udp"),
        dict(protocol="sack"),
        dict(queue="drr"),
        dict(queue="ared"),
        dict(workload="rpc"),
        dict(traffic="pareto_onoff"),
        dict(pacing=True),
        dict(obs_trace=("cwnd",)),
        dict(obs_profile=True),
        dict(backend="analytic"),
    ])
    def test_unsupported_fluid_combinations_rejected(self, overrides):
        with pytest.raises(ValueError):
            fluid_config(**overrides).validate()

    def test_solver_rejects_unmodeled_protocols(self):
        with pytest.raises(ValueError):
            FluidSolver(paper_config(protocol="sack"), 50)
        with pytest.raises(ValueError):
            FluidSolver(paper_config(queue="drr"), 50)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_solver_rejects_loss_override_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match="loss_override"):
            FluidSolver(paper_config(), 50, loss_override=p)


class TestFluidScenario:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scenario(fluid_config())

    def test_dispatches_to_fluid_backend(self, result):
        # No per-flow records in the mean-field limit.
        assert result.per_flow == []
        assert result.cwnd_traces() == {}

    def test_metrics_fields_populated(self, result):
        metrics = ScenarioMetrics.from_result(result)
        assert metrics.backend == "fluid"
        assert 0.0 < metrics.cov < 1.0
        assert 0.0 < metrics.utilization <= 1.0
        assert metrics.throughput_pps > 0.0
        assert 0.0 <= metrics.loss_percent < 100.0
        assert 0.0 <= metrics.mean_queue_length <= 50.0
        assert metrics.perf_events_executed > 0  # RK4 steps
        assert math.isnan(metrics.fairness)

    def test_scalar_metrics_are_builtin_floats(self, result):
        """The packet backend returns ``float``; so does this one, not
        ``np.float64`` (which prints as ``np.float64(0.76...)`` under
        numpy 2).  ``np.float64`` is a ``float`` subclass and formats
        identically, so the ``%.12g`` physics digests and cache JSON
        are unchanged by construction."""
        for name in ("cov", "throughput_pps", "mean_queue_length", "mean_latency"):
            assert type(getattr(result, name)) is float, name
        solver = FluidSolver(paper_config(duration=5.0), 200)
        solver.run()
        assert type(solver._final_z) is float

    def test_bin_counts_cover_measurement_window(self, result):
        config = result.config
        expected = int(
            (config.duration - config.warmup) / config.effective_bin_width
        )
        assert result.bin_counts.size == expected

    def test_deterministic(self, result):
        again = ScenarioMetrics.from_result(run_scenario(fluid_config()))
        assert again == ScenarioMetrics.from_result(result)

    def test_run_fluid_scenario_direct_entry(self):
        direct = run_fluid_scenario(fluid_config())
        via_dispatch = run_scenario(fluid_config())
        assert ScenarioMetrics.from_result(direct) == ScenarioMetrics.from_result(
            via_dispatch
        )

    def test_metrics_roundtrip_keeps_backend(self, result):
        metrics = ScenarioMetrics.from_result(result)
        assert ScenarioMetrics.from_dict(metrics.as_dict()).backend == "fluid"

    def test_old_records_default_to_packet(self):
        record = ScenarioMetrics.from_dict(
            {
                "protocol": "reno", "queue": "fifo", "label": "Reno",
                "n_clients": 20, "seed": 1, "duration": 200.0,
                "cov": 0.1, "offered_cov": 0.1, "analytic_cov": 0.1,
                "throughput_packets": 1, "throughput_pps": 1.0,
                "utilization": 0.5, "loss_percent": 0.0,
                "gateway_arrivals": 1, "gateway_drops": 0, "timeouts": 0,
                "fast_retransmits": 0, "dupacks": 0,
                "timeout_dupack_ratio": 0.0, "timeout_fastrtx_ratio": 0.0,
                "mean_queue_length": 0.0, "red_marks": 0, "fairness": 1.0,
                "mean_latency": 0.0, "max_latency": 0.0,
            }
        )
        assert record.backend == "packet"


class TestSchedulingIntegration:
    def test_fluid_cell_units_independent_of_n(self):
        small = fluid_config(n_clients=50)
        huge = fluid_config(n_clients=1_000_000)
        assert cell_units(small) == cell_units(huge)
        # ... unlike packet cells, which scale linearly in N.
        assert cell_units(paper_config(n_clients=100)) == pytest.approx(
            2.0 * cell_units(paper_config(n_clients=50))
        )

    def test_runlog_records_backend(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with RunLog(path=path) as log:
            log.sweep_start(total=2, workers=1)
            log.task_start(0, "d0", "Reno", 0, backend="packet")
            log.task_done(0, "d0", elapsed=1.5, backend="packet")
            log.task_start(1, "d1", "Reno~fluid", 0, backend="fluid")
            log.task_done(1, "d1", elapsed=0.3, backend="fluid")
            log.sweep_end()
        from repro.experiments.runlog import read_runlog

        events = read_runlog(path)
        starts = [e for e in events if e["event"] == "task_start"]
        assert [e["backend"] for e in starts] == ["packet", "fluid"]
        summary = summarize_runlog(events)
        assert summary["backends"]["packet"]["cells"] == 1
        assert summary["backends"]["fluid"]["cells"] == 1
        assert summary["backends"]["fluid"]["busy"] == pytest.approx(0.3)
