"""Unit tests for the shared TCP sender machinery (via RenoSender)."""

import pytest

from repro.experiments.config import PROTOCOLS, paper_config
from repro.experiments.scenario import run_scenario
from repro.obs.probes import FlowProbe
from repro.transport import transitions
from repro.transport.reno import RenoSender
from repro.transport.tcp_base import _COMPACT_AT, TcpSender
from repro.transport.transitions import TcpParams

from tests.helpers import TcpHarness


def make_harness(**param_overrides):
    params = TcpParams(**param_overrides)
    return TcpHarness(RenoSender, {"params": params})


class TestWindowGating:
    def test_initial_cwnd_sends_one_packet(self):
        h = make_harness()
        h.give_app_packets(10)
        assert h.sent_seqnos() == [0]

    def test_no_data_no_send(self):
        h = make_harness()
        assert h.sent_seqnos() == []

    def test_app_limited_sends_everything_within_window(self):
        h = make_harness(initial_cwnd=10.0)
        h.give_app_packets(3)
        assert h.sent_seqnos() == [0, 1, 2]

    def test_window_limits_outstanding(self):
        h = make_harness(initial_cwnd=4.0)
        h.give_app_packets(100)
        assert h.sent_seqnos() == [0, 1, 2, 3]
        assert h.sender.outstanding == 4

    def test_advertised_window_caps_cwnd(self):
        h = make_harness(initial_cwnd=50.0, advertised_window=6)
        h.give_app_packets(100)
        assert len(h.sent_seqnos()) == 6

    def test_ack_slides_window(self):
        h = make_harness(initial_cwnd=2.0, initial_ssthresh=2.0)
        h.give_app_packets(100)
        h.deliver_ack(0)
        # cwnd opened by congestion avoidance; at least one more packet out.
        assert h.sender.last_ack == 0
        assert max(h.sent_seqnos()) >= 2

    def test_send_buffer_backlog(self):
        h = make_harness(initial_cwnd=2.0)
        h.give_app_packets(10)
        assert h.sender.send_buffer_backlog == 8


class TestSlowStartAndCongestionAvoidance:
    def test_slow_start_increments_cwnd_per_ack(self):
        h = make_harness()
        h.give_app_packets(100)
        assert h.sender.cwnd == 1.0
        h.deliver_ack(0)
        assert h.sender.cwnd == 2.0
        h.deliver_ack(1)
        h.deliver_ack(2)
        assert h.sender.cwnd == 4.0

    def test_congestion_avoidance_linear(self):
        h = make_harness(initial_cwnd=4.0, initial_ssthresh=2.0)
        h.give_app_packets(100)
        h.deliver_ack(0)
        assert h.sender.cwnd == pytest.approx(4.25)
        h.deliver_ack(1)
        assert h.sender.cwnd == pytest.approx(4.25 + 1 / 4.25)

    def test_cwnd_never_exceeds_advertised_window(self):
        h = make_harness(advertised_window=5)
        h.give_app_packets(1000)
        for seq in range(100):
            h.deliver_ack(seq)
        assert h.sender.cwnd <= 5.0


class TestRttEstimation:
    def test_first_sample_initializes_srtt(self):
        h = make_harness()
        h.give_app_packets(10)
        h.advance(0.5)
        h.deliver_ack(0)
        assert h.sender.srtt == pytest.approx(0.5)
        assert h.sender.rttvar == pytest.approx(0.25)

    def test_jacobson_update(self):
        h = make_harness()
        h.give_app_packets(100)
        h.advance(0.4)
        h.deliver_ack(0)  # srtt=0.4, rttvar=0.2
        # next timed packet is the first one sent after the ack
        h.advance(0.8)  # its RTT sample = 0.8
        h.deliver_ack(h.sender.maxseq)
        # err = 0.8 - 0.4 = 0.4; srtt = 0.4 + 0.4/8 = 0.45
        assert h.sender.srtt == pytest.approx(0.45)
        # rttvar = 0.2 + (0.4 - 0.2)/4 = 0.25
        assert h.sender.rttvar == pytest.approx(0.25)

    def test_rto_floor_and_ceiling(self):
        h = make_harness(min_rto=1.0, max_rto=4.0)
        h.give_app_packets(10)
        assert h.sender.rto >= 1.0
        h.sender.backoff = 1000.0
        assert h.sender.rto == 4.0

    def test_rto_uses_tick_granularity(self):
        h = make_harness(tick=0.5, min_rto=0.1)
        h.give_app_packets(10)
        h.advance(0.3)
        h.deliver_ack(0)
        # srtt + 4*rttvar = 0.3 + 0.6 = 0.9, rounded up to 1.0.
        assert h.sender.rto == pytest.approx(1.0)

    def test_karn_no_sample_from_retransmission(self):
        h = make_harness(initial_rto=1.0, min_rto=1.0)
        h.give_app_packets(1)
        h.advance(1.5)  # timeout fires, packet 0 retransmitted
        assert h.sender.stats.timeouts == 1
        samples_before = h.sender.stats.rtt_samples
        h.deliver_ack(0)  # ACK of a retransmitted packet
        assert h.sender.stats.rtt_samples == samples_before

    def test_backoff_reset_on_new_sample(self):
        h = make_harness(initial_rto=1.0, min_rto=0.5)
        h.give_app_packets(2)
        h.advance(1.5)  # timeout doubles backoff
        assert h.sender.backoff == 2.0
        h.advance(0.2)
        h.deliver_ack(h.sender.maxseq)
        h.give_app_packets(1)  # untimed? new packet gets timed
        h.advance(0.3)
        h.deliver_ack(h.sender.maxseq)
        assert h.sender.backoff == 1.0


    def test_the_timer_arms_from_the_rto_of_the_latest_estimator_change(self):
        h = make_harness(initial_rto=1.0, min_rto=0.5, tick=0.1)
        h.give_app_packets(10)
        assert h.sender._rto == h.sender.rto == 1.0
        h.advance(0.3)
        h.deliver_ack(0)  # first sample: rto = ceil((0.3 + 0.6) / 0.1) * 0.1
        assert h.sender._rto == h.sender.rto == pytest.approx(0.9)
        assert h.sender.rtx_timer.expiry == pytest.approx(h.sim.now + 0.9)
        h.advance(1.0)  # the timeout at t=1.2 doubles the backoff
        assert h.sender.backoff == 2.0
        assert h.sender._rto == h.sender.rto == pytest.approx(1.8)
        assert h.sender.rtx_timer.expiry == pytest.approx(1.2 + 1.8)


@pytest.mark.parametrize("protocol", [p for p in PROTOCOLS if p != "udp"])
def test_the_armed_rto_is_the_rule_after_every_ack_and_timeout(protocol, monkeypatch):
    """``_rto`` is refreshed only where srtt, rttvar or backoff change;
    after every call that can change them it equals ``rto``, which
    evaluates ``transitions.rto_value`` afresh."""
    receive, timeout = TcpSender.receive, TcpSender._timeout
    calls = {"receive": 0, "timeout": 0}

    def checked(name, original):
        def call(self, *args):
            original(self, *args)
            calls[name] += 1
            assert self._rto == self.rto

        return call

    monkeypatch.setattr(TcpSender, "receive", checked("receive", receive))
    monkeypatch.setattr(TcpSender, "_timeout", checked("timeout", timeout))
    queue = "red" if protocol == "reno_ecn" else "fifo"
    run_scenario(
        paper_config(protocol=protocol, queue=queue, n_clients=40, duration=6.0, seed=5)
    )
    assert calls["receive"] > 500 and calls["timeout"] > 0


@pytest.mark.parametrize("protocol", [p for p in PROTOCOLS if p != "udp"])
def test_the_rto_rule_runs_once_per_estimator_change_not_per_ack(protocol, monkeypatch):
    """``transitions.rto_value`` runs once when a sender is built and once
    per RTT sample or timeout -- never once per ACK."""
    rto_value, init, receive = transitions.rto_value, TcpSender.__init__, TcpSender.receive
    stats, calls = [], {"rto_value": 0, "receive": 0}

    def counted_rto_value(*args):
        calls["rto_value"] += 1
        return rto_value(*args)

    def collected_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stats.append(self.stats)  # the run releases the sender itself

    def counted_receive(self, packet):
        calls["receive"] += 1
        receive(self, packet)

    monkeypatch.setattr(transitions, "rto_value", counted_rto_value)
    monkeypatch.setattr(TcpSender, "__init__", collected_init)
    monkeypatch.setattr(TcpSender, "receive", counted_receive)
    queue = "red" if protocol == "reno_ecn" else "fifo"
    run_scenario(
        paper_config(protocol=protocol, queue=queue, n_clients=40, duration=6.0, seed=5)
    )
    changes = sum(s.rtt_samples + s.timeouts for s in stats)
    assert stats and changes > 0
    assert calls["rto_value"] == len(stats) + changes
    assert calls["receive"] > 2 * calls["rto_value"]


class TestSequenceStore:
    """``send_time_of`` / ``transmit_count_of`` over the aligned arrays."""

    def test_answers_at_the_edges(self):
        h = make_harness(initial_cwnd=3.0, initial_rto=1.0, min_rto=1.0)
        sender = h.sender
        h.give_app_packets(10)
        h.advance(0.25)
        h.deliver_ack(0)  # sends 3 and 4 at t=0.25
        assert sender.send_time_of(0) is None  # at or below last_ack
        assert sender.transmit_count_of(0) == 0
        assert [sender.send_time_of(s) for s in (1, 2, 3, 4)] == [0.0, 0.0, 0.25, 0.25]
        assert sender.send_time_of(5) is None  # above maxseq
        assert sender.transmit_count_of(5) == 0
        h.advance(1.25)  # timeout at t=1.25: go-back-N resends 1
        assert sender.send_time_of(1) == pytest.approx(1.25)
        assert sender.transmit_count_of(1) == 2
        assert sender.transmit_count_of(2) == 1

    def test_seqnos_an_ack_beyond_maxseq_skipped_were_never_sent(self):
        h = make_harness(initial_cwnd=1.0, initial_rto=1.0)
        sender = h.sender
        h.give_app_packets(10)
        h.advance(1.5)  # timeout: 0 retransmitted
        h.deliver_ack(3)  # the receiver had 1-3; none of them was sent
        assert sender.last_ack == 3 and sender.maxseq == 5
        for seq in range(4):
            assert sender.send_time_of(seq) is None
            assert sender.transmit_count_of(seq) == 0
        assert [sender.send_time_of(s) for s in (4, 5, 6)] == [1.5, 1.5, None]
        assert [sender.transmit_count_of(s) for s in (4, 5, 6)] == [1, 1, 0]
        assert sender.t_seqno == 6

    def test_answers_survive_compaction(self):
        """A lossy ACK stream over more than three compactions: every
        answer in and around ``(last_ack, maxseq]`` matches what the
        captured transmissions say."""
        h = make_harness(initial_cwnd=8.0, advertised_window=8, initial_rto=1.0)
        sender = h.sender
        total = 4 * _COMPACT_AT
        h.give_app_packets(total)
        times, counts, seen = {}, {}, 0
        step = 0
        while sender.last_ack + 1 < total:
            step += 1
            h.advance(0.01)
            if step % 97 == 0:
                h.advance(1.5)  # a timeout and go-back-N
            elif step % 13 == 0:
                h.deliver_ack(sender.last_ack)  # a duplicate
            else:
                h.deliver_ack(min(sender.last_ack + 2, sender.maxseq))
            for packet in h.transmitted[seen:]:
                times[packet.seqno] = packet.created_at
                counts[packet.seqno] = counts.get(packet.seqno, 0) + 1
            seen = len(h.transmitted)
            for seq in range(sender.last_ack - 2, sender.maxseq + 3):
                if sender.last_ack < seq <= sender.maxseq:
                    assert sender.send_time_of(seq) == times[seq]
                    assert sender.transmit_count_of(seq) == counts[seq]
                else:
                    assert sender.send_time_of(seq) is None
                    assert sender.transmit_count_of(seq) == 0
        assert sender._seq_base > 3 * _COMPACT_AT - 8
        assert sender.stats.timeouts > 0 and sender.stats.retransmits > 0


class TestTimeout:
    def test_timeout_collapses_window_and_retransmits(self):
        h = make_harness(initial_cwnd=4.0, initial_rto=1.0)
        h.give_app_packets(10)
        assert h.sent_seqnos() == [0, 1, 2, 3]
        h.advance(1.5)
        assert h.sender.stats.timeouts == 1
        assert h.sender.cwnd == 1.0
        # Go-back-N: packet 0 retransmitted.
        assert h.sent_seqnos()[-1] == 0
        assert h.transmitted[-1].is_retransmit

    def test_timeout_halves_ssthresh(self):
        h = make_harness(initial_cwnd=8.0, initial_rto=1.0)
        h.give_app_packets(100)
        h.advance(1.5)
        assert h.sender.ssthresh == 4.0

    def test_ssthresh_floor_of_two(self):
        h = make_harness(initial_cwnd=1.0, initial_rto=1.0)
        h.give_app_packets(10)
        h.advance(1.5)
        assert h.sender.ssthresh == 2.0

    def test_repeated_timeouts_backoff_exponentially(self):
        h = make_harness(initial_rto=1.0, min_rto=1.0)
        h.give_app_packets(1)
        h.advance(1.5)
        assert h.sender.backoff == 2.0
        h.advance(2.5)
        assert h.sender.backoff == 4.0

    def test_backoff_capped(self):
        h = make_harness(initial_rto=0.1, min_rto=0.1, max_backoff=8.0)
        h.give_app_packets(1)
        h.advance(100.0)
        assert h.sender.backoff == 8.0

    def test_timer_cancelled_when_all_acked(self):
        h = make_harness()
        h.give_app_packets(1)
        h.deliver_ack(0)
        assert not h.sender.rtx_timer.pending
        h.advance(100.0)
        assert h.sender.stats.timeouts == 0

    def test_timer_restarts_while_outstanding(self):
        h = make_harness(initial_cwnd=3.0)
        h.give_app_packets(5)
        h.deliver_ack(0)
        assert h.sender.rtx_timer.pending


class TestAckProcessing:
    def test_stale_acks_ignored(self):
        h = make_harness(initial_cwnd=5.0)
        h.give_app_packets(10)
        h.deliver_ack(2)
        cwnd = h.sender.cwnd
        h.deliver_ack(1)  # stale
        assert h.sender.cwnd == cwnd
        assert h.sender.last_ack == 2

    def test_dupack_counted_only_with_outstanding_data(self):
        h = make_harness()
        h.give_app_packets(1)
        h.deliver_ack(0)  # nothing outstanding now
        h.deliver_ack(0)
        assert h.sender.dupacks == 0

    def test_dupacks_reset_on_new_ack(self):
        h = make_harness(initial_cwnd=5.0)
        h.give_app_packets(10)
        h.deliver_ack(0)
        h.deliver_ack(0)
        h.deliver_ack(0)
        assert h.sender.dupacks == 2
        h.deliver_ack(1)
        assert h.sender.dupacks == 0

    def test_cumulative_ack_advances_t_seqno(self):
        h = make_harness(initial_cwnd=1.0, initial_rto=1.0)
        h.give_app_packets(5)
        h.advance(1.5)  # timeout rewinds t_seqno to 0
        h.deliver_ack(3)  # receiver had buffered 1-3
        assert h.sender.t_seqno > 3

    def test_data_packets_ignored_by_sender(self):
        h = make_harness()
        h.give_app_packets(1)
        data = h.factory.data(0, "x", "capture", 1000, seqno=5, now=0.0)
        h.sender.receive(data)
        assert h.sender.last_ack == -1


class TestCwndTracing:
    def test_trace_records_changes(self):
        h = make_harness()
        probe = h.sender.attach_probe(FlowProbe(0, ("cwnd",)))
        h.give_app_packets(100)
        h.deliver_ack(0)
        h.deliver_ack(1)
        assert probe.cwnd.column("cwnd") == [1.0, 2.0, 3.0]

    def test_no_trace_by_default(self):
        h = make_harness()
        h.give_app_packets(10)
        h.deliver_ack(0)
        assert h.sender.obs is None


class TestParamsValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(packet_size=0),
            dict(advertised_window=0),
            dict(min_rto=0.0),
            dict(min_rto=2.0, max_rto=1.0),
            dict(tick=0.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TcpParams(**kwargs).validate()
