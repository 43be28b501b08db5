"""Pure TCP state-transition arithmetic: the sixteen rules, as a list,
and the :class:`TcpParams` whose fields they read.

Every window, RTT-estimator and retransmit-timer expression that the
senders (:mod:`repro.transport.tcp_base`, :mod:`repro.transport.reno`,
:mod:`repro.transport.vegas`) evaluate is defined here *once* as a pure
function of scalars.  The senders are the only callers -- both flow
engines run those same sender classes -- so this module is not what
keeps two implementations alike; it is the flat surface on which the
rules can be read, property-tested and mutated one at a time.

The randomized property tests (``tests/test_tcp_transitions.py``) hold
them to their invariants: cwnd never below one packet, ssthresh halving
never below two, additive increase monotone between loss events, RTO
bounded by ``[min_rto, max_rto]``.

Keep these functions free of any engine state: scalars in, scalars out,
no mutation, no clocks, no RNG.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "TcpParams",
    "clamp_cwnd",
    "effective_window",
    "slowstart_or_linear_next",
    "halved_ssthresh",
    "rtt_init",
    "rtt_update",
    "rto_value",
    "next_backoff",
    "reno_recovery_inflation",
    "reno_fast_recovery_entry_cwnd",
    "vegas_queue_estimate",
    "vegas_fine_timeout",
    "vegas_ss_exit_window",
    "vegas_ss_grow_window",
    "vegas_ca_next",
    "vegas_loss_window",
]


@dataclass
class TcpParams:
    """Tunables shared by all TCP senders (paper Table 1 defaults)."""

    packet_size: int = 1000  # bytes, headers included (ns-2 style)
    advertised_window: int = 20  # packets; the flow-control cap
    initial_cwnd: float = 1.0
    initial_ssthresh: float = 20.0  # slow start probes up to the flow cap
    # Retransmission timer.
    tick: float = 0.1  # timer granularity (BSD/ns-2 coarse clock)
    min_rto: float = 0.2
    max_rto: float = 64.0
    initial_rto: float = 1.0
    max_backoff: float = 64.0
    # ECN: senders mark packets ECN-capable and halve on echo.
    ecn: bool = False
    # Pacing: spread the window over the RTT instead of releasing
    # send-buffer backlogs as back-to-back bursts.  Not in the paper --
    # it is the natural fix its conclusions point at, used here for the
    # pacing ablation.
    pacing: bool = False

    def validate(self) -> None:
        """Raise ValueError on inconsistent settings."""
        if self.packet_size <= 0:
            raise ValueError("packet size must be positive")
        if self.advertised_window < 1:
            raise ValueError("advertised window must be at least 1 packet")
        if self.min_rto <= 0 or self.max_rto < self.min_rto:
            raise ValueError("need 0 < min_rto <= max_rto")
        if self.tick <= 0:
            raise ValueError("timer tick must be positive")


# ----------------------------------------------------------------------
# Window arithmetic (TcpSender)
# ----------------------------------------------------------------------
def clamp_cwnd(value: float, advertised_window: int) -> float:
    """Congestion-window clamp to [1, advertised_window] packets."""
    return max(1.0, min(value, float(advertised_window)))


def effective_window(cwnd: float, advertised_window: int) -> float:
    """Effective window: congestion window capped by flow control."""
    return min(cwnd, float(advertised_window))


def slowstart_or_linear_next(cwnd: float, ssthresh: float) -> float:
    """The standard additive opening: slow start below ssthresh,
    +1/cwnd per ACK above it (congestion avoidance)."""
    if cwnd < ssthresh:
        return cwnd + 1.0
    return cwnd + 1.0 / cwnd


def halved_ssthresh(window: float) -> float:
    """ssthresh <- max(window/2, 2): half the effective window (ns-2's
    ``window()``), not RFC 2581's flightsize."""
    return max(window / 2.0, 2.0)


# ----------------------------------------------------------------------
# RTT estimation (Jacobson/Karels) and the retransmission timer
# ----------------------------------------------------------------------
def rtt_init(sample: float) -> Tuple[float, float]:
    """(srtt, rttvar) seeded from the first RTT sample."""
    return sample, sample / 2.0


def rtt_update(srtt: float, rttvar: float, sample: float) -> Tuple[float, float]:
    """One Jacobson/Karels EWMA step: gains 1/8 (srtt) and 1/4 (rttvar)."""
    err = sample - srtt
    return srtt + err / 8.0, rttvar + (abs(err) - rttvar) / 4.0


def rto_value(
    srtt: Optional[float],
    rttvar: float,
    backoff: float,
    tick: float,
    min_rto: float,
    max_rto: float,
    initial_rto: float,
) -> float:
    """Current retransmission timeout, with backoff and granularity."""
    if srtt is None:
        base = initial_rto
    else:
        base = srtt + 4.0 * rttvar
        # Coarse timer granularity, as in BSD/ns-2 of the era.
        base = math.ceil(base / tick) * tick
    # Clamp to the floor before applying backoff (as BSD does), so
    # exponential backoff bites even when the RTT estimate is tiny.
    value = max(min_rto, base) * backoff
    return min(max_rto, value)


def next_backoff(backoff: float, max_backoff: float) -> float:
    """Exponential timer backoff after a retransmission timeout."""
    return min(max_backoff, backoff * 2.0)


# ----------------------------------------------------------------------
# Reno fast recovery
# ----------------------------------------------------------------------
def reno_recovery_inflation(cwnd: float) -> float:
    """Window inflation: every duplicate ACK signals a departure."""
    return cwnd + 1.0


def reno_fast_recovery_entry_cwnd(ssthresh: float) -> float:
    """cwnd on entering fast recovery: the halved ssthresh inflated by
    the three duplicate ACKs already seen."""
    return ssthresh + 3.0


# ----------------------------------------------------------------------
# Vegas estimator and window policy
# ----------------------------------------------------------------------
def vegas_queue_estimate(window: float, base_rtt: float, rtt: float) -> float:
    """Estimated packets this flow keeps queued at the bottleneck."""
    if not math.isfinite(base_rtt) or rtt <= 0:
        return 0.0
    expected = window / base_rtt
    actual = window / rtt
    return (expected - actual) * base_rtt


def vegas_fine_timeout(
    srtt: Optional[float], rttvar: float, initial_rto: float
) -> float:
    """Fine-grained expiry (no coarse tick rounding, no backoff)."""
    if srtt is None:
        return initial_rto
    return srtt + 4.0 * rttvar


def vegas_ss_exit_window(cwnd: float, min_cwnd: float, shrink: float) -> float:
    """Window on leaving slow start (a 1/8 reduction by default)."""
    return max(min_cwnd, cwnd * shrink)


def vegas_ss_grow_window(cwnd: float) -> float:
    """Slow-start doubling (Vegas doubles every other RTT)."""
    return cwnd * 2.0


def vegas_ca_next(
    cwnd: float, diff: float, alpha: float, beta: float, min_cwnd: float
) -> float:
    """Congestion-avoidance step: keep the queue estimate in
    [alpha, beta] by adjusting the window linearly (+1 / -1)."""
    if diff < alpha:
        return cwnd + 1.0
    if diff > beta:
        return max(min_cwnd, cwnd - 1.0)
    return cwnd


def vegas_loss_window(cwnd: float, min_cwnd: float, shrink: float) -> float:
    """Fast-retransmit reduction (one quarter, at most once per RTT)."""
    return max(min_cwnd, cwnd * shrink)
