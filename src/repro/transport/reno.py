"""TCP Reno: fast retransmit + fast recovery.

The paper's primary subject.  On the third duplicate ACK, Reno halves
its window and retransmits the missing packet, then *inflates* the
window by one packet per further duplicate ACK (each signals a departure
from the network) so it can keep the pipe full, and *deflates* back to
ssthresh when a new ACK arrives (RFC 2581; Jacobson '90 refinement of
'88).  A retransmission timeout still collapses the window to one packet
and re-enters slow start -- the drastic adjustment whose frequency the
paper ties to Reno's induced burstiness (Section 3.4).
"""

from __future__ import annotations

from repro.transport import transitions
from repro.transport.tcp_base import TcpSender


class RenoSender(TcpSender):
    """TCP Reno congestion control."""

    protocol_name = "reno"
    DUPACK_THRESHOLD = 3

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.in_recovery = False
        self._recover = -1  # highest seq sent when recovery began

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    def _on_new_ack_window(self, ackno: int) -> None:
        if self.in_recovery:
            # Classic Reno leaves fast recovery on the first new ACK,
            # deflating the inflated window back to ssthresh.
            self.in_recovery = False
            self._recover = -1
            self.note_state("recovery_exit")
            self.set_cwnd(self.ssthresh)
            return
        self.set_cwnd(transitions.slowstart_or_linear_next(self.cwnd, self.ssthresh))

    def _on_dupack(self) -> None:
        if self.in_recovery:
            # Window inflation: every duplicate ACK signals a packet has
            # left the network, so one more may enter.
            self.set_cwnd(transitions.reno_recovery_inflation(self.cwnd))
            self.send_much()
            return
        if self.dupacks == self.DUPACK_THRESHOLD:
            self._fast_retransmit()

    def _on_timeout_window(self) -> None:
        self.in_recovery = False
        self._recover = -1
        self.halve_ssthresh()
        self.set_cwnd(1.0)

    # ------------------------------------------------------------------
    # Fast retransmit / fast recovery
    # ------------------------------------------------------------------
    def _fast_retransmit(self) -> None:
        self.stats.fast_retransmits += 1
        self.note_state("fast_retransmit")
        self.halve_ssthresh()
        self.in_recovery = True
        self._recover = self.maxseq
        # Retransmit the hole, then inflate by the three dupacks already seen.
        self.output(self.last_ack + 1)
        self._rtt_seq = None  # Karn: never time a retransmission
        self.set_cwnd(transitions.reno_fast_recovery_entry_cwnd(self.ssthresh))
        self.rtx_timer.restart(self._rto)
        self.send_much()
