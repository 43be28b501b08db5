"""Struct-of-arrays per-flow TCP state for the batch engine.

:class:`FlowBatch` holds the state of N homogeneous TCP flows as
parallel arrays: numpy float64 for the fields the driver scans as a
vector (retransmit deadlines, Poisson next-arrival times), plain Python
lists for the fields only ever read one flow at a time (cwnd, ssthresh,
RTT estimators, dupack counters -- scalar numpy indexing would box an
``np.float64`` per access), and per-flow Python containers for the
bookkeeping that must stay exact Python types (sequence numbers are
ints so they never leak ``np.int64`` into JSON-serialized metrics;
send-time maps are dicts).

The ACK/timeout state machine mirrors
:class:`repro.transport.tcp_base.TcpSender` *call for call* -- same
statement order, same expressions (via :mod:`repro.engine.transitions`),
same observability publish points -- so a batch run produces
bit-identical per-flow statistics, cwnd logs, obs series and forensics
events.  ``RenoFlowBatch`` and ``VegasFlowBatch`` mirror the
``RenoSender`` / ``VegasSender`` policy hooks the same way.

The transport side (how an ``output`` packet reaches the gateway, how
timers and arrivals are scheduled) is delegated to a driver object
(:class:`repro.engine.batch.BatchScenario`) through three callbacks:
``transmit(i, packet)``, ``timer_arm(i, deadline)`` and the shared
simulator clock.

:class:`UdpFlowBatch` is the same idea for the transparent baseline:
what is left of a flow once window, timers and ACKs are gone.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional

import numpy as np

from repro.engine import transitions
from repro.transport.tcp_base import TcpParams, TcpSenderStats
from repro.transport.vegas import VegasParams, VegasSender

_INF = math.inf


class FlowBatch:
    """N homogeneous TCP flows in struct-of-arrays layout."""

    protocol_name = "tcp"

    def __init__(
        self,
        n_flows: int,
        params: TcpParams,
        driver,
        trace_flows=(),
    ) -> None:
        params.validate()
        if params.pacing:
            raise ValueError("the batch engine does not support pacing")
        self.n = n_flows
        self.params = params
        self.driver = driver  # supplies .sim, .transmit, .timer_arm
        # Hot-path constant (send_much inlines effective_window).
        self._adv = float(params.advertised_window)

        # --- struct-of-arrays core -------------------------------------
        # One parallel array per field.  Fields the driver scans as a
        # vector (timer/arrival cohorts) are numpy float64; fields only
        # ever touched one flow at a time are plain Python lists --
        # scalar indexing into a numpy array boxes an np.float64 per
        # access (~100ns), which dominates the fused handlers at the
        # batch engine's event rate (see DESIGN.md section 15).
        self.cwnd: List[float] = [float(params.initial_cwnd)] * n_flows
        self.ssthresh: List[float] = [float(params.initial_ssthresh)] * n_flows
        # NaN = "no sample yet" (the object engine's ``srtt is None``).
        self.srtt: List[float] = [math.nan] * n_flows
        self.rttvar: List[float] = [0.0] * n_flows
        self.backoff: List[float] = [1.0] * n_flows
        self.dupacks: List[int] = [0] * n_flows
        # inf = timer disarmed; finite = absolute expiry time.  This is
        # the array the driver's timer cohort scans with np.nonzero.
        self.rtx_deadline = np.full(n_flows, _INF, dtype=np.float64)
        # Head-of-buffer pending Poisson arrival (inf = none pending);
        # maintained by the driver's arrival machinery.
        self.next_arrival = np.full(n_flows, _INF, dtype=np.float64)

        # --- exact-integer sequence bookkeeping (Python ints) ----------
        self.last_ack: List[int] = [-1] * n_flows
        self.t_seqno: List[int] = [0] * n_flows
        self.maxseq: List[int] = [-1] * n_flows
        self.app_total: List[int] = [0] * n_flows

        # --- RTT sampling (Karn) ---------------------------------------
        self.rtt_seq: List[Optional[int]] = [None] * n_flows
        self.rtt_sent_at: List[float] = [0.0] * n_flows
        self.last_ack_rtt: List[Optional[float]] = [None] * n_flows

        # --- per-flow maps and logs ------------------------------------
        self.send_times: List[Dict[int, float]] = [dict() for _ in range(n_flows)]
        self.transmit_counts: List[Dict[int, int]] = [dict() for _ in range(n_flows)]
        self.generation_times = [deque() for _ in range(n_flows)]
        self.stats = [TcpSenderStats() for _ in range(n_flows)]
        trace_set = set(trace_flows)
        self.trace_cwnd = [i in trace_set for i in range(n_flows)]
        self.cwnd_log = [
            [(0.0, float(params.initial_cwnd))] if i in trace_set else []
            for i in range(n_flows)
        ]

        # Observability: FlowProbe per flow (or None), forensics probe.
        self.obs = [None] * n_flows
        self.forensics = None

    # ------------------------------------------------------------------
    # Observability (mirrors TcpSender.attach_probe / note_state)
    # ------------------------------------------------------------------
    def attach_probe(self, i: int, probe):
        self.obs[i] = probe
        probe.on_cwnd(self.driver.sim.now, float(self.cwnd[i]), float(self.ssthresh[i]))
        return probe

    def note_state(self, i: int, state: str, now: float) -> None:
        obs = self.obs[i]
        if obs is not None:
            obs.on_state(now, state)
        forensics = self.forensics
        if forensics is not None:
            forensics.on_flow_state(i, now, state)

    # ------------------------------------------------------------------
    # Application interface (mirrors TcpSender.app_arrival)
    # ------------------------------------------------------------------
    def app_arrival(self, i: int, n_packets: int, now: float) -> None:
        self.generation_times[i].extend([now] * n_packets)
        self.app_total[i] += n_packets
        self.stats[i].app_packets += n_packets
        self.send_much(i, now)

    def app_arrival_bulk(self, i: int, times) -> None:
        """Book a backlogged flow's deferred arrivals in one call.

        Only valid while the flow is backlogged: a non-empty send
        buffer implies the window is shut (the lazy-arrival invariant),
        so the per-arrival ``send_much`` this path skips would have
        been a no-op for every entry.
        """
        self.generation_times[i].extend(times)
        self.app_total[i] += len(times)
        self.stats[i].app_packets += len(times)

    def backlog(self, i: int) -> int:
        return max(0, self.app_total[i] - self.t_seqno[i])

    # ------------------------------------------------------------------
    # Window helpers (same expressions as TcpSender)
    # ------------------------------------------------------------------
    def window(self, i: int) -> float:
        return transitions.effective_window(
            float(self.cwnd[i]), self.params.advertised_window
        )

    def outstanding(self, i: int) -> int:
        return max(0, self.t_seqno[i] - (self.last_ack[i] + 1))

    def set_cwnd(self, i: int, value: float, now: float) -> None:
        value = float(transitions.clamp_cwnd(value, self.params.advertised_window))
        if value != self.cwnd[i]:
            self.cwnd[i] = value
            if self.trace_cwnd[i]:
                self.cwnd_log[i].append((now, value))
            obs = self.obs[i]
            if obs is not None:
                obs.on_cwnd(now, value, float(self.ssthresh[i]))

    # ------------------------------------------------------------------
    # Transmission (mirrors TcpSender.send_much / output)
    # ------------------------------------------------------------------
    def send_much(self, i: int, now: float) -> None:
        # transitions.effective_window inlined: min(cwnd, advertised).
        cwnd = self.cwnd[i]
        adv = self._adv
        limit = self.last_ack[i] + int(cwnd if cwnd < adv else adv)
        seq = self.t_seqno[i]
        total = self.app_total[i]
        while seq <= limit and seq < total:
            self.output(i, seq, now)
            seq += 1
            self.t_seqno[i] = seq

    def output(self, i: int, seqno: int, now: float) -> None:
        driver = self.driver
        is_retransmit = seqno <= self.maxseq[i]
        packet = driver.mint_data(i, seqno, now, is_retransmit)
        stats = self.stats[i]
        stats.packets_sent += 1
        if is_retransmit:
            stats.retransmits += 1
        self.send_times[i][seqno] = now
        self.transmit_counts[i][seqno] = self.transmit_counts[i].get(seqno, 0) + 1
        if seqno > self.maxseq[i]:
            self.maxseq[i] = seqno
            # Karn: only time first transmissions, one at a time.
            if self.rtt_seq[i] is None:
                self.rtt_seq[i] = seqno
                self.rtt_sent_at[i] = now
        if self.rtx_deadline[i] == _INF:
            driver.timer_arm(i, now + self.rto(i))
        driver.transmit(i, packet, now)

    # ------------------------------------------------------------------
    # ACK processing (mirrors TcpSender.receive / _new_ack)
    # ------------------------------------------------------------------
    def on_ack(self, i: int, ackno: int, now: float) -> None:
        self.stats[i].acks_received += 1
        if ackno > self.last_ack[i]:
            self._new_ack(i, ackno, now)
        elif ackno == self.last_ack[i] and self.outstanding(i) > 0:
            self.dupacks[i] += 1
            self.stats[i].dupacks_received += 1
            self._on_dupack(i, now)
        # ACKs below last_ack are stale; ignore.

    def _new_ack(self, i: int, ackno: int, now: float) -> None:
        self.stats[i].new_acks += 1
        old_last_ack = self.last_ack[i]
        self.last_ack[i] = ackno
        if self.t_seqno[i] < ackno + 1:
            self.t_seqno[i] = ackno + 1
        self._take_rtt_sample(i, ackno, now)
        sent_at = self.send_times[i].get(ackno)
        self.last_ack_rtt[i] = (now - sent_at) if sent_at is not None else None
        self._forget_acked(i, old_last_ack, ackno, now)
        self.dupacks[i] = 0
        self._on_new_ack_window(i, ackno, now)
        if self.outstanding(i) > 0:
            self.driver.timer_arm(i, now + self.rto(i))
        else:
            self.rtx_deadline[i] = _INF
        self.send_much(i, now)

    # ------------------------------------------------------------------
    # RTT estimation (mirrors TcpSender)
    # ------------------------------------------------------------------
    def _take_rtt_sample(self, i: int, ackno: int, now: float) -> None:
        rtt_seq = self.rtt_seq[i]
        if rtt_seq is not None and ackno >= rtt_seq:
            sample = now - self.rtt_sent_at[i]
            self.rtt_seq[i] = None
            self._update_rtt(i, sample, now)

    def _update_rtt(self, i: int, sample: float, now: float) -> None:
        self.stats[i].rtt_samples += 1
        if math.isnan(self.srtt[i]):
            self.srtt[i], self.rttvar[i] = transitions.rtt_init(sample)
        else:
            self.srtt[i], self.rttvar[i] = transitions.rtt_update(
                float(self.srtt[i]), float(self.rttvar[i]), sample
            )
        self.backoff[i] = 1.0
        obs = self.obs[i]
        if obs is not None:
            obs.on_rtt(now, sample, float(self.srtt[i]), float(self.rttvar[i]))

    def rtt_estimate(self, i: int) -> float:
        srtt = self.srtt[i]
        return float(srtt) if not math.isnan(srtt) else self.params.initial_rto

    def rto(self, i: int) -> float:
        params = self.params
        srtt = self.srtt[i]
        return transitions.rto_value(
            None if math.isnan(srtt) else float(srtt),
            float(self.rttvar[i]),
            float(self.backoff[i]),
            params.tick,
            params.min_rto,
            params.max_rto,
            params.initial_rto,
        )

    # ------------------------------------------------------------------
    # Timeout (mirrors TcpSender._timeout; driver fires the cohort)
    # ------------------------------------------------------------------
    def on_timeout(self, i: int, now: float) -> None:
        self.stats[i].timeouts += 1
        self.note_state(i, "timeout", now)
        # Karn: invalidate the in-flight RTT measurement.
        self.rtt_seq[i] = None
        self.backoff[i] = transitions.next_backoff(
            float(self.backoff[i]), self.params.max_backoff
        )
        self._on_timeout_window(i, now)
        # Go-back-N: rewind the send point to the first unACKed packet.
        self.t_seqno[i] = self.last_ack[i] + 1
        self.dupacks[i] = 0
        self.driver.timer_arm(i, now + self.rto(i))
        self.send_much(i, now)

    # ------------------------------------------------------------------
    # Shared policy pieces
    # ------------------------------------------------------------------
    def slowstart_or_linear_increase(self, i: int, now: float) -> None:
        self.set_cwnd(
            i,
            transitions.slowstart_or_linear_next(
                float(self.cwnd[i]), float(self.ssthresh[i])
            ),
            now,
        )

    def halve_ssthresh(self, i: int, now: float) -> None:
        self.ssthresh[i] = transitions.halved_ssthresh(self.window(i))
        obs = self.obs[i]
        if obs is not None:
            obs.on_cwnd(now, float(self.cwnd[i]), float(self.ssthresh[i]))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _forget_acked(self, i: int, old_last_ack: int, ackno: int, now: float) -> None:
        send_times = self.send_times[i]
        transmit_counts = self.transmit_counts[i]
        generation_times = self.generation_times[i]
        stats = self.stats[i]
        for seq in range(old_last_ack + 1, ackno + 1):
            send_times.pop(seq, None)
            transmit_counts.pop(seq, None)
            if generation_times:
                stats.note_latency(now - generation_times.popleft())

    # ------------------------------------------------------------------
    # Policy hooks (subclasses mirror RenoSender / VegasSender)
    # ------------------------------------------------------------------
    def _on_new_ack_window(self, i: int, ackno: int, now: float) -> None:
        raise NotImplementedError

    def _on_dupack(self, i: int, now: float) -> None:
        raise NotImplementedError

    def _on_timeout_window(self, i: int, now: float) -> None:
        raise NotImplementedError


class RenoFlowBatch(FlowBatch):
    """Batched TCP Reno (mirrors :class:`repro.transport.reno.RenoSender`)."""

    protocol_name = "reno"
    DUPACK_THRESHOLD = 3

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.in_recovery: List[bool] = [False] * self.n
        self.recover = [-1] * self.n

    def _on_new_ack_window(self, i: int, ackno: int, now: float) -> None:
        if self.in_recovery[i]:
            self.in_recovery[i] = False
            self.recover[i] = -1
            self.note_state(i, "recovery_exit", now)
            self.set_cwnd(i, float(self.ssthresh[i]), now)
            return
        self.slowstart_or_linear_increase(i, now)

    def _on_dupack(self, i: int, now: float) -> None:
        if self.in_recovery[i]:
            self.set_cwnd(
                i, transitions.reno_recovery_inflation(float(self.cwnd[i])), now
            )
            self.send_much(i, now)
            return
        if self.dupacks[i] == self.DUPACK_THRESHOLD:
            self._fast_retransmit(i, now)

    def _on_timeout_window(self, i: int, now: float) -> None:
        self.in_recovery[i] = False
        self.recover[i] = -1
        self.halve_ssthresh(i, now)
        self.set_cwnd(i, 1.0, now)

    def _fast_retransmit(self, i: int, now: float) -> None:
        self.stats[i].fast_retransmits += 1
        self.note_state(i, "fast_retransmit", now)
        self.halve_ssthresh(i, now)
        self.in_recovery[i] = True
        self.recover[i] = self.maxseq[i]
        self.output(i, self.last_ack[i] + 1, now)
        self.rtt_seq[i] = None  # Karn: never time a retransmission
        self.set_cwnd(
            i, transitions.reno_fast_recovery_entry_cwnd(float(self.ssthresh[i])), now
        )
        self.driver.timer_arm(i, now + self.rto(i))
        self.send_much(i, now)


class VegasFlowBatch(FlowBatch):
    """Batched TCP Vegas (mirrors :class:`repro.transport.vegas.VegasSender`)."""

    protocol_name = "vegas"
    DUPACK_THRESHOLD = VegasSender.DUPACK_THRESHOLD
    MIN_CWND = VegasSender.MIN_CWND
    TIMEOUT_CWND = VegasSender.TIMEOUT_CWND
    SS_EXIT_SHRINK = VegasSender.SS_EXIT_SHRINK
    LOSS_SHRINK = VegasSender.LOSS_SHRINK

    def __init__(self, *args, vegas_params: Optional[VegasParams] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.vegas = vegas_params or VegasParams()
        self.vegas.validate()
        self.base_rtt: List[float] = [_INF] * self.n
        self.in_slow_start: List[bool] = [True] * self.n
        self.ss_grow_this_epoch: List[bool] = [True] * self.n
        self.epoch_marker = [0] * self.n
        self.last_reduction_time: List[float] = [-_INF] * self.n
        self.diff_history = [[] for _ in range(self.n)]

    def _on_new_ack_window(self, i: int, ackno: int, now: float) -> None:
        rtt = self.last_ack_rtt[i]
        if rtt is not None and rtt > 0:
            self.base_rtt[i] = min(float(self.base_rtt[i]), rtt)
        if ackno >= self.epoch_marker[i]:
            self._per_rtt_adjustment(i, rtt, now)
            self.epoch_marker[i] = self.t_seqno[i]

    def _on_dupack(self, i: int, now: float) -> None:
        if self.dupacks[i] >= self.DUPACK_THRESHOLD:
            if self.dupacks[i] == self.DUPACK_THRESHOLD:
                self._vegas_retransmit(i, now)
            return
        missing = self.last_ack[i] + 1
        sent_at = self.send_times[i].get(missing)
        if sent_at is not None and now - sent_at > self._fine_timeout(i):
            self._vegas_retransmit(i, now)

    def _on_timeout_window(self, i: int, now: float) -> None:
        self.in_slow_start[i] = True
        self.ss_grow_this_epoch[i] = True
        self.set_cwnd(i, self.TIMEOUT_CWND, now)
        self.epoch_marker[i] = self.last_ack[i] + 1

    def _per_rtt_adjustment(self, i: int, rtt, now: float) -> None:
        base_rtt = float(self.base_rtt[i])
        if rtt is None or rtt <= 0 or not math.isfinite(base_rtt):
            return
        diff = transitions.vegas_queue_estimate(self.window(i), base_rtt, rtt)
        self.diff_history[i].append((now, diff))
        vegas = self.vegas
        if self.in_slow_start[i]:
            if diff > vegas.gamma:
                self.in_slow_start[i] = False
                self.note_state(i, "slowstart_exit", now)
                self.set_cwnd(
                    i,
                    transitions.vegas_ss_exit_window(
                        float(self.cwnd[i]), self.MIN_CWND, self.SS_EXIT_SHRINK
                    ),
                    now,
                )
            elif self.ss_grow_this_epoch[i]:
                self.set_cwnd(
                    i, transitions.vegas_ss_grow_window(float(self.cwnd[i])), now
                )
                self.ss_grow_this_epoch[i] = False
            else:
                self.ss_grow_this_epoch[i] = True
            return
        self.set_cwnd(
            i,
            transitions.vegas_ca_next(
                float(self.cwnd[i]), diff, vegas.alpha, vegas.beta, self.MIN_CWND
            ),
            now,
        )

    def _fine_timeout(self, i: int) -> float:
        srtt = self.srtt[i]
        return transitions.vegas_fine_timeout(
            None if math.isnan(srtt) else float(srtt),
            float(self.rttvar[i]),
            self.params.initial_rto,
        )

    def _vegas_retransmit(self, i: int, now: float) -> None:
        missing = self.last_ack[i] + 1
        sent_at = self.send_times[i].get(missing)
        if (
            self.transmit_counts[i].get(missing, 0) > 1
            and sent_at is not None
            and now - sent_at < self.rtt_estimate(i)
        ):
            # Already retransmitted within the last RTT; don't pile on.
            return
        self.stats[i].fast_retransmits += 1
        self.note_state(i, "fast_retransmit", now)
        self.output(i, missing, now)
        self.rtt_seq[i] = None  # Karn
        # Reduce at most once per RTT.
        if now - float(self.last_reduction_time[i]) > self.rtt_estimate(i):
            self.last_reduction_time[i] = now
            self.in_slow_start[i] = False
            self.set_cwnd(
                i,
                transitions.vegas_loss_window(
                    float(self.cwnd[i]), self.MIN_CWND, self.LOSS_SHRINK
                ),
                now,
            )
        self.driver.timer_arm(i, now + self.rto(i))


class UdpFlowBatch:
    """N UDP flows (mirrors :class:`repro.transport.udp.UdpSender`).

    A sequence counter and two tallies per flow: no window, no timers,
    no ACK path, so nothing of :class:`FlowBatch` applies.  ``generated``
    is the open-loop source's count (``TrafficSource.generated``), kept
    here because a UDP flow's sender view doubles as its source.
    """

    def __init__(self, n_flows: int, driver) -> None:
        self.driver = driver  # supplies .mint_data, .transmit, .access_room
        self.next_seq: List[int] = [0] * n_flows
        self.packets_sent: List[int] = [0] * n_flows
        self.generated: List[int] = [0] * n_flows

    def app_arrival(self, i: int, n_packets: int, now: float) -> None:
        driver = self.driver
        # No window bounds what a UDP flow has in flight, so the access
        # queue the driver treats as lossless has to be asked.
        driver.access_room(i, n_packets, now)
        for _ in range(n_packets):
            seqno = self.next_seq[i]
            packet = driver.mint_data(i, seqno, now, False)
            self.next_seq[i] = seqno + 1
            self.packets_sent[i] += 1
            driver.transmit(i, packet, now)


#: Config protocol -> TCP flow-batch class (delayed ACKs are a sink
#: policy: the sender is plain Reno).
FLOW_BATCHES = {
    "reno": RenoFlowBatch,
    "reno_delack": RenoFlowBatch,
    "vegas": VegasFlowBatch,
}
