"""TCP Vegas: proactive, delay-based congestion avoidance.

Brakmo & Peterson (JSAC 1995), the paper's reference [2].  Vegas
compares the *expected* throughput ``window/BaseRTT`` with the *actual*
throughput ``window/RTT``; the difference, scaled by BaseRTT, estimates
how many of the connection's packets sit queued in the bottleneck
gateway.  Once per RTT:

* congestion avoidance keeps that estimate between ``alpha`` and
  ``beta`` packets, adjusting the window linearly (+1 / -1);
* slow start doubles the window only every *other* RTT (so a valid
  comparison is available in between) and ends -- with a 1/8 window
  reduction -- when the estimate exceeds ``gamma``.

Loss recovery keeps Reno's duplicate-ACK machinery but adds Vegas's
fine-grained retransmission check (retransmit on the first or second
duplicate ACK if the fine-grained timeout for the missing packet has
expired) and reduces the window by only one quarter, at most once per
RTT.  A coarse retransmission timeout restarts slow start from a window
of two packets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.transport import transitions
from repro.transport.tcp_base import TcpSender


@dataclass
class VegasParams:
    """Vegas thresholds, in packets queued at the bottleneck.

    Defaults are the "commonly used values" the paper states: at least
    ``alpha = 1`` and at most ``beta = 3`` packets queued per stream,
    with ``gamma = 1`` governing the slow-start exit.
    """

    alpha: float = 1.0
    beta: float = 3.0
    gamma: float = 1.0

    def validate(self) -> None:
        """Raise ValueError on inconsistent thresholds."""
        if self.alpha < 0 or self.beta < self.alpha:
            raise ValueError("need 0 <= alpha <= beta")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")


class VegasSender(TcpSender):
    """TCP Vegas congestion control."""

    protocol_name = "vegas"
    DUPACK_THRESHOLD = 3
    MIN_CWND = 2.0
    TIMEOUT_CWND = 2.0
    SS_EXIT_SHRINK = 0.875  # leave slow start with a 1/8 reduction
    LOSS_SHRINK = 0.75  # fast-retransmit reduction (once per RTT)

    def __init__(self, *args, vegas_params: VegasParams = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.vegas = vegas_params or VegasParams()
        self.vegas.validate()
        self.base_rtt = math.inf
        self.in_slow_start = True
        self._ss_grow_this_epoch = True
        self._epoch_marker = 0  # epoch ends when last_ack reaches this seq
        self._last_reduction_time = -math.inf

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    def _on_new_ack_window(self, ackno: int) -> None:
        rtt = self.last_ack_rtt
        if rtt is not None and rtt > 0:
            self.base_rtt = min(self.base_rtt, rtt)
        if ackno >= self._epoch_marker:
            self._per_rtt_adjustment(rtt)
            self._epoch_marker = self.t_seqno

    def _on_dupack(self) -> None:
        if self.dupacks >= self.DUPACK_THRESHOLD:
            if self.dupacks == self.DUPACK_THRESHOLD:
                self._vegas_retransmit()
            return
        # Fine-grained check on the 1st/2nd duplicate ACK: if the missing
        # packet's fine timeout has expired, do not wait for a third.
        missing = self.last_ack + 1
        sent_at = self.send_time_of(missing)
        if sent_at is not None and self.sim.now - sent_at > self._fine_timeout():
            self._vegas_retransmit()

    def _on_timeout_window(self) -> None:
        self.in_slow_start = True
        self._ss_grow_this_epoch = True
        self.set_cwnd(self.TIMEOUT_CWND)
        self._epoch_marker = self.last_ack + 1

    # ------------------------------------------------------------------
    # The Vegas estimator
    # ------------------------------------------------------------------
    def queue_estimate(self, rtt: float) -> float:
        """Estimated packets this flow keeps queued at the bottleneck."""
        return transitions.vegas_queue_estimate(self.window(), self.base_rtt, rtt)

    def _per_rtt_adjustment(self, rtt) -> None:
        if rtt is None or rtt <= 0 or not math.isfinite(self.base_rtt):
            return
        diff = self.queue_estimate(rtt)
        vegas = self.vegas
        if self.in_slow_start:
            if diff > vegas.gamma:
                self.in_slow_start = False
                self.note_state("slowstart_exit")
                self.set_cwnd(
                    transitions.vegas_ss_exit_window(
                        self.cwnd, self.MIN_CWND, self.SS_EXIT_SHRINK
                    )
                )
            elif self._ss_grow_this_epoch:
                self.set_cwnd(transitions.vegas_ss_grow_window(self.cwnd))
                self._ss_grow_this_epoch = False
            else:
                self._ss_grow_this_epoch = True
            return
        self.set_cwnd(
            transitions.vegas_ca_next(
                self.cwnd, diff, vegas.alpha, vegas.beta, self.MIN_CWND
            )
        )

    # ------------------------------------------------------------------
    # Loss recovery
    # ------------------------------------------------------------------
    def _fine_timeout(self) -> float:
        """Fine-grained expiry (no coarse tick rounding, no backoff)."""
        return transitions.vegas_fine_timeout(
            self.srtt, self.rttvar, self.params.initial_rto
        )

    def _vegas_retransmit(self) -> None:
        missing = self.last_ack + 1
        sent_at = self.send_time_of(missing)
        if (
            self.transmit_count_of(missing) > 1
            and sent_at is not None
            and self.sim.now - sent_at < self.rtt_estimate()
        ):
            # Already retransmitted within the last RTT; don't pile on.
            return
        self.stats.fast_retransmits += 1
        self.note_state("fast_retransmit")
        self.output(missing)
        self._rtt_seq = None  # Karn
        now = self.sim.now
        # Reduce at most once per RTT (several dupacks may report the
        # same loss episode).
        if now - self._last_reduction_time > self.rtt_estimate():
            self._last_reduction_time = now
            self.in_slow_start = False
            self.set_cwnd(
                transitions.vegas_loss_window(
                    self.cwnd, self.MIN_CWND, self.LOSS_SHRINK
                )
            )
        self.rtx_timer.restart(self._rto)
