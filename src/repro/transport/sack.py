"""TCP with Selective Acknowledgements (SACK).

The "Sack1" variant of Fall & Floyd, "Simulation-based Comparisons of
Tahoe, Reno and SACK TCP" (CCR 1996), on RFC 2018 receiver blocks:

* the receiver reports up to three ranges of out-of-order packets it
  holds; the sender keeps a *scoreboard* of everything known to have
  arrived;
* loss recovery starts like Reno's (third duplicate ACK halves the
  window) but transmission during recovery is governed by the *pipe*
  counter -- an estimate of packets in flight -- rather than window
  inflation: whenever ``pipe < cwnd`` the sender emits the next unSACKed
  hole (or new data when no holes remain), decrementing ``pipe`` on
  every duplicate ACK and partial ACK;
* unlike Reno/NewReno, multiple losses from one window are repaired
  without retransmitting anything the receiver already has, and usually
  without a timeout.

A retransmission timeout clears the scoreboard (the reassembly state is
no longer trusted, RFC 2018 section 5.2) and falls back to slow start.
"""

from __future__ import annotations

from typing import Set

from repro.net.packet import Packet
from repro.transport import transitions
from repro.transport.tcp_base import TcpSender


class SackSender(TcpSender):
    """TCP SACK congestion control (Fall & Floyd's Sack1)."""

    protocol_name = "sack"
    DUPACK_THRESHOLD = 3

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.scoreboard: Set[int] = set()  # seqs > last_ack known received
        self.in_recovery = False
        self._recover = -1
        self.pipe = 0
        self._retransmitted_this_recovery: Set[int] = set()

    # ------------------------------------------------------------------
    # Receive path: harvest SACK blocks before normal processing
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        if packet.is_ack and packet.sack_blocks:
            for first, last in packet.sack_blocks:
                self.scoreboard.update(range(first, last + 1))
        super().receive(packet)

    # ------------------------------------------------------------------
    # Policy hooks
    # ------------------------------------------------------------------
    def _on_new_ack_window(self, ackno: int) -> None:
        self.scoreboard = {seq for seq in self.scoreboard if seq > ackno}
        if not self.in_recovery:
            self.set_cwnd(transitions.slowstart_or_linear_next(self.cwnd, self.ssthresh))
            return
        if ackno >= self._recover:
            # Full ACK: recovery complete.
            self.in_recovery = False
            self._recover = -1
            self._retransmitted_this_recovery.clear()
            self.pipe = 0
            self.note_state("recovery_exit")
            self.set_cwnd(self.ssthresh)
            return
        # Partial ACK: the retransmission and the original both left the
        # pipe (Fall & Floyd decrement pipe by two).
        self.pipe = max(0, self.pipe - 2)
        self._send_from_scoreboard()
        self.rtx_timer.restart(self._rto)

    def _on_dupack(self) -> None:
        if self.in_recovery:
            self.pipe = max(0, self.pipe - 1)
            self._send_from_scoreboard()
            return
        if self.dupacks == self.DUPACK_THRESHOLD:
            self._enter_recovery()

    def _on_timeout_window(self) -> None:
        self.in_recovery = False
        self._recover = -1
        self._retransmitted_this_recovery.clear()
        self.pipe = 0
        # RFC 2018 section 5.2: after an RTO the scoreboard must be
        # cleared -- everything unACKed is retransmitted from scratch.
        self.scoreboard.clear()
        self.halve_ssthresh()
        self.set_cwnd(1.0)

    def send_much(self) -> None:
        # During recovery, transmission is governed by the pipe counter,
        # not the plain window arithmetic.
        if self.in_recovery:
            self._send_from_scoreboard()
        else:
            super().send_much()

    # ------------------------------------------------------------------
    # Recovery mechanics
    # ------------------------------------------------------------------
    def _enter_recovery(self) -> None:
        self.stats.fast_retransmits += 1
        self.note_state("fast_retransmit")
        self.halve_ssthresh()
        self.set_cwnd(self.ssthresh)
        self.in_recovery = True
        self._recover = self.maxseq
        self._retransmitted_this_recovery.clear()
        # Packets in flight, minus what the duplicate ACKs say has left
        # the network (the dupacks themselves + everything SACKed).
        self.pipe = max(0, self.outstanding - self.dupacks - len(self.scoreboard))
        self._send_from_scoreboard()
        self._rtt_seq = None  # Karn
        self.rtx_timer.restart(self._rto)

    def _next_hole(self) -> int:
        """Smallest unSACKed, not-yet-retransmitted seq that is a
        genuine hole (-1 if none).

        A missing packet only counts as a hole when some *higher*
        sequence has been SACKed -- packets above the highest SACKed
        seq are merely still in flight, and retransmitting them would
        be spurious (the forward-most-data rule of FACK/sack1).
        """
        if not self.scoreboard:
            return -1
        highest_sacked = max(self.scoreboard)
        for seq in range(self.last_ack + 1, min(self._recover, highest_sacked) + 1):
            if seq in self.scoreboard:
                continue
            if seq in self._retransmitted_this_recovery:
                continue
            return seq
        return -1

    def _send_from_scoreboard(self) -> None:
        """Emit holes (then new data) while the pipe has room."""
        while self.pipe < int(self.window()):
            hole = self._next_hole()
            if hole >= 0:
                self._retransmitted_this_recovery.add(hole)
                self.output(hole)
                self.pipe += 1
                continue
            # No holes left: new data, if the send buffer has any.
            if self.t_seqno < self.app_total:
                self.output(self.t_seqno)
                self.t_seqno += 1
                self.pipe += 1
                continue
            break
