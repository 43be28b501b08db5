"""The production mean-field solver against its textbook form, byte for byte.

``FluidSolver`` hoists per-step and per-run subexpressions out of the
RK4 stages and writes into preallocated buffers; every float operation
is meant to keep its operands and its order.  This file is the proof:
``tests/fluid_reference.py`` holds the unoptimised ``rhs``/RK4 step,
and every trajectory array plus the final ``(m, z)`` must be
``tobytes()``-equal between the two -- not close, equal (compared
as ``uint64`` views, so ``-0.0 != 0.0`` and ``nan == nan``).

It is a same-host differential, not a byte-hash golden: ``r @ m`` goes
through BLAS ``ddot``, whose summation order may differ between hosts,
and both sides share it.  A change that alters the solver's floats on
purpose (step size, operator form) has to edit the reference, which is
the visible boundary; an order-preserving optimisation must not.
"""

import struct

import numpy as np
import pytest

from repro.core.fluid_backend import FluidSolver
from repro.experiments.config import paper_config
from tests import fluid_reference as reference

TRAJECTORY_KEYS = ("t", "A", "q", "p", "s", "w", "z", "fr", "to")
PROTOCOL_QUEUE = [
    ("reno", "fifo"), ("reno", "red"), ("vegas", "fifo"), ("vegas", "red"),
]


def bits(x: float) -> bytes:
    """The IEEE-754 bytes of a scalar (so -0.0 != 0.0 and nan == nan)."""
    return struct.pack("<d", x)


def run_pair(n_flows, schedule=None, n_bins=96, loss_override=None, **fields):
    """Step a production solver and the reference in lockstep, both
    for ``n_flows`` flows of ``paper_config(**fields)``.

    ``schedule(i)``, when given, returns the ``extra_arrival`` to set
    on both before step ``i`` (the way ``HybridCoupler._tick`` does) or
    None to leave it alone.
    """
    config = paper_config(**fields)
    solver, ref = (
        FluidSolver(config, n_flows, n_bins=n_bins, loss_override=loss_override)
        for _ in range(2)
    )
    solver.begin()
    reference.begin(ref)
    assert solver.steps == ref.steps > 0
    for i in range(solver.steps):
        if schedule is not None:
            extra = schedule(i)
            if extra is not None:
                solver.extra_arrival = ref.extra_arrival = extra
        solver.step_once()
        reference.step_once(ref)
    return solver, ref


def assert_same_bits(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
    differing = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert differing.size == 0, (
        f"{what}: {differing.size} of {got.size} elements differ, "
        f"first at index {differing[0]}"
    )


def assert_bit_identical(solver: FluidSolver, ref: FluidSolver) -> None:
    got, want = solver.trajectory(), reference.trajectory(ref)
    for key in TRAJECTORY_KEYS:
        assert_same_bits(got[key], want[key], f"trajectory[{key!r}]")
    assert_same_bits(solver._final_m, want["m"], "final m")
    assert bits(solver._final_z) == bits(want["z_final"])


class TestTrajectories:
    @pytest.mark.parametrize("n_flows", [20, 200, 100_000])
    @pytest.mark.parametrize("protocol,queue", PROTOCOL_QUEUE)
    def test_paper_grid(self, protocol, queue, n_flows):
        """Uncongested (N=20), limit-cycling (N=200) and saturated
        (N=10^5) regimes on the default 96-bin grid."""
        assert_bit_identical(*run_pair(
            n_flows, protocol=protocol, queue=queue, duration=30.0,
        ))

    @pytest.mark.parametrize("protocol,queue", PROTOCOL_QUEUE)
    def test_loss_override(self, protocol, queue):
        """A pinned loss probability bypasses the queue coupling, so the
        halving/timeout terms run at full strength from step 0."""
        assert_bit_identical(*run_pair(
            200, protocol=protocol, queue=queue, duration=20.0,
            loss_override=0.05,
        ))

    @pytest.mark.parametrize("protocol,queue", PROTOCOL_QUEUE)
    def test_non_default_grid(self, protocol, queue):
        assert_bit_identical(*run_pair(
            200, protocol=protocol, queue=queue, duration=30.0,
            n_bins=64, advertised_window=40,
        ))

    @pytest.mark.parametrize("n_bins,advertised_window", [(8, 2), (8, 3), (2, 20)])
    @pytest.mark.parametrize("protocol,queue", [("reno", "fifo"), ("vegas", "red")])
    def test_degenerate_grids(self, protocol, queue, n_bins, advertised_window):
        """``advertised_window`` 2 and 3 put every bin below the timeout window
        (the halving scatter is empty: all loss goes to ``z``); the
        2-bin grid puts none there (the timeout prefix is empty)."""
        solver, ref = run_pair(
            200, protocol=protocol, queue=queue, duration=20.0,
            n_bins=n_bins, advertised_window=advertised_window,
        )
        assert int(solver.to_mask.sum()) == (0 if n_bins == 2 else n_bins)
        assert_bit_identical(solver, ref)

    @pytest.mark.parametrize("queue", ["fifo", "red"])
    def test_vegas_downward_drift(self, queue):
        """At the paper's rate cap the Vegas backlog estimate never
        exceeds ``beta``; a faster source makes large windows shrink,
        which is the only way the downward flux is non-zero."""
        solver, ref = run_pair(
            50, protocol="vegas", queue=queue, duration=30.0, mean_gap=0.025,
        )
        r_fb, rtt_fb = solver.rates(float(solver.trajectory()["q"].max()))
        assert (r_fb * (rtt_fb - solver.rtt_prop)).max() > solver.beta
        assert_bit_identical(solver, ref)

    @pytest.mark.parametrize("protocol,queue", PROTOCOL_QUEUE)
    def test_extra_arrival_changed_between_steps(self, protocol, queue):
        """The hybrid coupler rewrites ``extra_arrival`` between steps
        (a packet count over the coupling interval); nothing the solver
        hoists may depend on the value it had a step ago."""
        rng = np.random.default_rng(11)
        dt = FluidSolver(paper_config(protocol=protocol, queue=queue), 50).dt
        counts = rng.integers(0, 6, size=4096)

        def schedule(i):
            return float(counts[i // 3]) / (3 * dt) if i % 3 == 0 else None

        assert_bit_identical(*run_pair(
            100_000, schedule, protocol=protocol, queue=queue, duration=20.0,
        ))


class TestRhs:
    @pytest.mark.parametrize("p_fb", [0.0, 0.08, 1.0])
    @pytest.mark.parametrize("protocol,queue", PROTOCOL_QUEUE)
    def test_rhs_matches_reference_on_random_states(self, protocol, queue, p_fb):
        """The public one-off ``rhs()`` on the random states
        ``test_rhs_conserves_probability_mass`` draws."""
        config = paper_config(protocol=protocol, queue=queue)
        solver, ref = FluidSolver(config, 200), FluidSolver(config, 200)
        rng = np.random.default_rng(7)
        for _ in range(5):
            z = float(rng.uniform(0.0, 0.3))
            m = rng.random(solver.M)
            m = m / m.sum() * (1.0 - z)
            solver._to_return = ref._to_return = float(rng.uniform(0.0, 0.02))
            q = float(rng.uniform(0.0, solver.B))
            got = solver.rhs(m.copy(), z, q, q * 0.8, p_fb, q * 0.9)
            want = reference.rhs(ref, m.copy(), z, q, q * 0.8, p_fb, q * 0.9)
            assert_same_bits(got[0], want[0], "dm")
            assert [bits(x) for x in got[1:]] == [bits(x) for x in want[1:]]
            assert bits(solver._to_entry) == bits(ref._to_entry)
            assert bits(solver._tau_now) == bits(ref._tau_now)
