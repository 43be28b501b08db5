"""ECN-capable TCP Reno (extension).

The paper's future-work direction: congestion signalled by marks rather
than drops.  The sender sets the ECN-capable bit on its data packets; an
ECN-enabled RED gateway marks instead of dropping below ``max_th``; the
sink echoes the mark on its ACKs; and the sender reacts to an echo
exactly as it would to a fast-retransmit loss -- halving the window --
but without retransmitting anything, at most once per RTT (RFC 3168
semantics, simplified: the echo is per-ACK rather than latched until
CWR).
"""

from __future__ import annotations

from repro.transport.reno import RenoSender


class EcnRenoSender(RenoSender):
    """Reno that halves on ECN echoes."""

    protocol_name = "reno-ecn"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Force ECN-capable transmissions regardless of supplied params.
        self.params.ecn = True
        self._last_ecn_cut = float("-inf")

    def _on_ecn_echo(self) -> None:
        now = self.sim.now
        if now - self._last_ecn_cut < self.rtt_estimate():
            return
        self._last_ecn_cut = now
        self.stats.ecn_responses += 1
        self.note_state("ecn_cut")
        self.halve_ssthresh()
        self.set_cwnd(self.ssthresh)

