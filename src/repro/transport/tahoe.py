"""TCP Tahoe: fast retransmit without fast recovery.

On the third duplicate ACK Tahoe retransmits the missing packet but then
restarts slow start from a window of one, exactly as it does on a
timeout (Jacobson, SIGCOMM '88).  Included as the historical baseline
against which Reno's fast recovery is defined.
"""

from __future__ import annotations

from repro.transport import transitions
from repro.transport.tcp_base import TcpSender


class TahoeSender(TcpSender):
    """TCP Tahoe congestion control."""

    protocol_name = "tahoe"
    DUPACK_THRESHOLD = 3

    def _on_new_ack_window(self, ackno: int) -> None:
        self.set_cwnd(transitions.slowstart_or_linear_next(self.cwnd, self.ssthresh))

    def _on_dupack(self) -> None:
        if self.dupacks != self.DUPACK_THRESHOLD:
            return
        self.stats.fast_retransmits += 1
        self.note_state("fast_retransmit")
        self.halve_ssthresh()
        self.set_cwnd(1.0)
        # Rewind and retransmit from the hole; slow start will reopen.
        self.t_seqno = self.last_ack + 1
        # Karn: the retransmission must not be timed.
        self._rtt_seq = None
        self.rtx_timer.restart(self._rto)
        self.send_much()

    def _on_timeout_window(self) -> None:
        self.halve_ssthresh()
        self.set_cwnd(1.0)
