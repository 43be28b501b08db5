"""TCP NewReno: fast recovery that survives partial ACKs.

Classic Reno exits fast recovery on the first new ACK even when that ACK
only covers part of the outstanding window, forcing a timeout when
several packets from one window were lost.  NewReno (RFC 2582) stays in
recovery until the ACK covers everything outstanding at the time the
loss was detected, retransmitting one hole per partial ACK.  Included as
an extension/baseline beyond the paper's protocol set.
"""

from __future__ import annotations

from repro.transport import transitions
from repro.transport.reno import RenoSender


class NewRenoSender(RenoSender):
    """TCP NewReno congestion control."""

    protocol_name = "newreno"

    def _on_new_ack_window(self, ackno: int) -> None:
        if not self.in_recovery:
            self.set_cwnd(transitions.slowstart_or_linear_next(self.cwnd, self.ssthresh))
            return
        if ackno >= self._recover:
            # Full ACK: recovery is complete; deflate.
            self.in_recovery = False
            self._recover = -1
            self.note_state("recovery_exit")
            self.set_cwnd(self.ssthresh)
            return
        # Partial ACK: retransmit the next hole and stay in recovery.
        # Deflate cwnd by the amount of new data acknowledged, then add
        # back one packet (RFC 2582 section 3, step 5).
        self.note_state("partial_ack")
        self.output(ackno + 1)
        self._rtt_seq = None
        self.set_cwnd(self.cwnd - float(self.last_progress) + 1.0)
        self.rtx_timer.restart(self._rto)
