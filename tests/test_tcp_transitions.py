"""Property tests on the pure TCP transition functions.

:mod:`repro.transport.transitions` is the single source of truth for the
window, RTT-estimator and retransmit-timer arithmetic: the senders
under ``repro.transport``, which both flow engines run, call these
functions and nothing else computes a window or a timeout.
These tests pin the functions' invariants directly, with no engine
running, so a future edit that breaks an invariant fails here first --
in milliseconds, with a minimal counterexample.
"""

from __future__ import annotations

import math
import sys

from hypothesis import example, given
from hypothesis import strategies as st

from repro.transport import transitions

finite = st.floats(allow_nan=False, allow_infinity=False)
cwnds = st.floats(min_value=1.0, max_value=1e6, allow_nan=False)
positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
adv_windows = st.integers(min_value=1, max_value=10_000)


# ----------------------------------------------------------------------
# Window clamps
# ----------------------------------------------------------------------
@given(value=finite, adv=adv_windows)
def test_clamp_cwnd_range_and_idempotence(value, adv):
    clamped = transitions.clamp_cwnd(value, adv)
    assert 1.0 <= clamped <= float(adv)
    assert transitions.clamp_cwnd(clamped, adv) == clamped


@given(cwnd=cwnds, adv=adv_windows)
def test_effective_window_is_the_tighter_bound(cwnd, adv):
    window = transitions.effective_window(cwnd, adv)
    assert window == min(cwnd, float(adv))


# ----------------------------------------------------------------------
# Additive increase: strictly monotone between loss events
# ----------------------------------------------------------------------
@given(cwnd=cwnds, ssthresh=st.floats(min_value=2.0, max_value=1e6))
def test_increase_is_strictly_monotone(cwnd, ssthresh):
    after = transitions.slowstart_or_linear_next(cwnd, ssthresh)
    assert after > cwnd
    # Slow start opens by a full packet; congestion avoidance by 1/cwnd.
    if cwnd < ssthresh:
        assert after == cwnd + 1.0
    else:
        assert after == cwnd + 1.0 / cwnd


@given(cwnd=st.floats(min_value=1.0, max_value=1e3), steps=st.integers(1, 50))
def test_aimd_trajectory_is_monotone_between_losses(cwnd, steps):
    """No ACK sequence without a loss event can shrink the window."""
    ssthresh = cwnd / 2.0 + 1.0
    trajectory = [cwnd]
    for _ in range(steps):
        trajectory.append(
            transitions.slowstart_or_linear_next(trajectory[-1], ssthresh)
        )
    assert all(b > a for a, b in zip(trajectory, trajectory[1:]))


@given(window=st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
def test_halved_ssthresh_floor(window):
    half = transitions.halved_ssthresh(window)
    assert half >= 2.0
    if window >= 4.0:
        assert half == window / 2.0


@given(cwnd=cwnds)
def test_reno_recovery_arithmetic(cwnd):
    assert transitions.reno_recovery_inflation(cwnd) == cwnd + 1.0
    assert transitions.reno_fast_recovery_entry_cwnd(cwnd) == cwnd + 3.0


# ----------------------------------------------------------------------
# RTT estimator and retransmission timer
# ----------------------------------------------------------------------
@given(sample=positive)
def test_rtt_init_seeds_variance_at_half(sample):
    srtt, rttvar = transitions.rtt_init(sample)
    assert srtt == sample
    assert rttvar == sample / 2.0


@given(srtt=positive, rttvar=st.floats(min_value=0.0, max_value=1e6), sample=positive)
@example(srtt=1.0, rttvar=5e-324, sample=1.0)  # 0.75 * 5e-324 rounds back to 5e-324
def test_rtt_update_moves_toward_sample(srtt, rttvar, sample):
    new_srtt, new_rttvar = transitions.rtt_update(srtt, rttvar, sample)
    lo, hi = min(srtt, sample), max(srtt, sample)
    assert lo <= new_srtt <= hi
    assert new_rttvar >= 0.0
    # A repeated identical sample decays the variance estimate --
    # strictly so only above the subnormals, where 0.75x can round back.
    if sample == srtt and rttvar >= sys.float_info.min:
        assert new_rttvar < rttvar


@given(
    srtt=st.one_of(st.none(), positive),
    rttvar=st.floats(min_value=0.0, max_value=100.0),
    backoff=st.sampled_from([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]),
    tick=st.floats(min_value=0.01, max_value=1.0),
)
def test_rto_bounded_and_monotone_in_backoff(srtt, rttvar, backoff, tick):
    min_rto, max_rto, initial_rto = 1.0, 64.0, 3.0
    rto = transitions.rto_value(
        srtt, rttvar, backoff, tick, min_rto, max_rto, initial_rto
    )
    assert min_rto <= rto <= max_rto
    doubled = transitions.rto_value(
        srtt, rttvar, min(backoff * 2.0, 64.0), tick, min_rto, max_rto, initial_rto
    )
    assert doubled >= rto


@given(backoff=st.floats(min_value=1.0, max_value=1e3), cap=st.floats(1.0, 1e3))
def test_backoff_doubles_until_the_cap(backoff, cap):
    after = transitions.next_backoff(backoff, cap)
    assert after <= cap
    assert after == min(cap, backoff * 2.0)
    # Monotone non-decreasing sequence under iteration.
    assert transitions.next_backoff(after, cap) >= after


# ----------------------------------------------------------------------
# Vegas estimator and window policy
# ----------------------------------------------------------------------
@given(window=cwnds, base_rtt=positive, extra=st.floats(0.0, 1e3))
def test_vegas_queue_estimate_sign(window, base_rtt, extra):
    """The backlog estimate is zero at base RTT and grows with queueing."""
    rtt = base_rtt + extra
    diff = transitions.vegas_queue_estimate(window, base_rtt, rtt)
    assert diff >= 0.0
    assert math.isclose(
        diff, window * (1.0 - base_rtt / rtt), rel_tol=1e-9, abs_tol=1e-9
    )
    assert transitions.vegas_queue_estimate(window, base_rtt, base_rtt) == 0.0


@given(window=cwnds)
def test_vegas_queue_estimate_unmeasurable_is_zero(window):
    assert transitions.vegas_queue_estimate(window, math.inf, 1.0) == 0.0
    assert transitions.vegas_queue_estimate(window, 1.0, 0.0) == 0.0


@given(
    cwnd=st.floats(min_value=2.0, max_value=1e6),
    diff=st.floats(min_value=0.0, max_value=100.0),
)
def test_vegas_ca_step_is_at_most_one_packet(cwnd, diff):
    alpha, beta, min_cwnd = 1.0, 3.0, 2.0
    after = transitions.vegas_ca_next(cwnd, diff, alpha, beta, min_cwnd)
    assert abs(after - cwnd) <= 1.0
    assert after >= min_cwnd
    if alpha <= diff <= beta:
        assert after == cwnd  # inside the target band: hold


@given(cwnd=cwnds, shrink=st.floats(min_value=0.1, max_value=1.0))
def test_vegas_reductions_respect_the_floor(cwnd, shrink):
    min_cwnd = 2.0
    for fn in (transitions.vegas_ss_exit_window, transitions.vegas_loss_window):
        after = fn(cwnd, min_cwnd, shrink)
        assert after >= min_cwnd
        assert after <= max(cwnd, min_cwnd)
    assert transitions.vegas_ss_grow_window(cwnd) == cwnd * 2.0


@given(
    srtt=st.one_of(st.none(), positive),
    rttvar=st.floats(min_value=0.0, max_value=1e3),
)
def test_vegas_fine_timeout_matches_jacobson_expiry(srtt, rttvar):
    initial_rto = 3.0
    expiry = transitions.vegas_fine_timeout(srtt, rttvar, initial_rto)
    if srtt is None:
        assert expiry == initial_rto
    else:
        assert expiry == srtt + 4.0 * rttvar
