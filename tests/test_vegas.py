"""Unit tests for TCP Vegas."""


import pytest

from repro.transport.transitions import TcpParams
from repro.transport.vegas import VegasParams, VegasSender

from tests.helpers import TcpHarness


def make_harness(cwnd=2.0, alpha=1.0, beta=3.0, gamma=1.0, **overrides):
    params = TcpParams(
        initial_cwnd=cwnd,
        initial_ssthresh=overrides.pop("ssthresh", 64.0),
        **overrides,
    )
    return TcpHarness(
        VegasSender,
        {
            "params": params,
            "vegas_params": VegasParams(alpha=alpha, beta=beta, gamma=gamma),
        },
    )


def ack_after(h, rtt):
    """Advance the clock by ``rtt`` and cumulatively ACK everything."""
    h.advance(rtt)
    h.ack_all_outstanding()


class TestVegasParams:
    def test_defaults_match_paper(self):
        params = VegasParams()
        assert (params.alpha, params.beta, params.gamma) == (1.0, 3.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [dict(alpha=-1.0), dict(alpha=3.0, beta=1.0), dict(gamma=-0.5)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            VegasParams(**kwargs).validate()


class TestBaseRtt:
    def test_base_rtt_tracks_minimum(self):
        h = make_harness()
        h.give_app_packets(100)
        ack_after(h, 0.5)
        assert h.sender.base_rtt == pytest.approx(0.5)
        ack_after(h, 0.3)
        assert h.sender.base_rtt == pytest.approx(0.3)
        ack_after(h, 0.9)
        assert h.sender.base_rtt == pytest.approx(0.3)

    def test_queue_estimate_zero_at_base_rtt(self):
        h = make_harness()
        h.give_app_packets(100)
        ack_after(h, 0.5)
        assert h.sender.queue_estimate(0.5) == pytest.approx(0.0)

    def test_queue_estimate_counts_backlog(self):
        h = make_harness(cwnd=10.0)
        h.give_app_packets(100)
        ack_after(h, 0.5)  # base RTT 0.5
        # backlog = W * (1 - base/rtt); at rtt = 2*base it is W/2.
        window = h.sender.window()
        assert h.sender.queue_estimate(1.0) == pytest.approx(window / 2.0)


class TestSlowStart:
    def test_doubles_every_other_rtt(self):
        h = make_harness(cwnd=2.0)
        h.give_app_packets(1000)
        ack_after(h, 0.5)  # epoch 1: grow allowed -> cwnd 4
        assert h.sender.cwnd == 4.0
        ack_after(h, 0.5)  # epoch 2: hold
        assert h.sender.cwnd == 4.0
        ack_after(h, 0.5)  # epoch 3: grow -> 8
        assert h.sender.cwnd == 8.0

    def test_exits_on_gamma_with_shrink(self):
        h = make_harness(cwnd=8.0, gamma=1.0)
        h.give_app_packets(1000)
        ack_after(h, 0.5)  # base rtt 0.5; cwnd doubles to 16
        assert h.sender.in_slow_start
        # Now inflate the RTT so the backlog estimate exceeds gamma.
        ack_after(h, 1.0)
        assert not h.sender.in_slow_start
        assert h.sender.cwnd == pytest.approx(16.0 * 0.875)

    def test_cap_at_advertised_window(self):
        h = make_harness(cwnd=16.0, advertised_window=20)
        h.give_app_packets(1000)
        ack_after(h, 0.5)
        assert h.sender.cwnd == 20.0


class TestCongestionAvoidance:
    # A huge RTO keeps the coarse retransmission timer out of these
    # hand-clocked tests.
    NO_TIMEOUT = dict(min_rto=50.0, initial_rto=50.0, max_rto=64.0)

    def setup_ca(self, h, base=0.5):
        """Push the sender out of slow start with one inflated RTT."""
        h.give_app_packets(10_000)
        ack_after(h, base)
        ack_after(h, base * 3)  # exit slow start
        assert not h.sender.in_slow_start
        assert h.sender.stats.timeouts == 0

    def test_increase_when_below_alpha(self):
        h = make_harness(cwnd=4.0, **self.NO_TIMEOUT)
        self.setup_ca(h)
        cwnd = h.sender.cwnd
        ack_after(h, 0.5)  # rtt == base: diff 0 < alpha
        assert h.sender.cwnd == cwnd + 1.0

    def test_decrease_when_above_beta(self):
        h = make_harness(cwnd=10.0, **self.NO_TIMEOUT)
        self.setup_ca(h)
        cwnd = h.sender.cwnd
        # RTT big enough that backlog estimate > beta=3.
        ack_after(h, 2.0)
        assert h.sender.cwnd == cwnd - 1.0

    def test_hold_between_alpha_and_beta(self):
        h = make_harness(cwnd=4.0, alpha=1.0, beta=3.0, **self.NO_TIMEOUT)
        self.setup_ca(h)
        cwnd = h.sender.cwnd
        # Pick an RTT giving backlog estimate of exactly 2 (between 1 and 3):
        # diff = W * (1 - base/rtt); want diff = 2 -> rtt = base*W/(W-2).
        base = h.sender.base_rtt
        rtt = base * cwnd / (cwnd - 2.0)
        ack_after(h, rtt)
        assert h.sender.cwnd == cwnd

    def test_floor_of_two(self):
        h = make_harness(cwnd=2.0, **self.NO_TIMEOUT)
        self.setup_ca(h)
        for _ in range(5):
            ack_after(h, 3.0)
        assert h.sender.cwnd >= 2.0


class TestVegasLossRecovery:
    def test_three_dupacks_retransmit_and_shrink_quarter(self):
        h = make_harness(cwnd=8.0)
        h.give_app_packets(100)
        h.advance(0.5)
        h.deliver_ack(0)
        cwnd = h.sender.cwnd
        for _ in range(3):
            h.deliver_ack(0)
        assert h.sender.stats.fast_retransmits == 1
        assert h.sent_seqnos().count(1) == 2
        assert h.sender.cwnd == pytest.approx(max(2.0, cwnd * 0.75))

    def test_fine_grained_retransmit_on_first_dupack(self):
        h = make_harness(cwnd=8.0, initial_rto=0.3)
        h.give_app_packets(100)
        h.advance(0.5)
        h.deliver_ack(0)
        # Make the fine timeout for packet 1 expire (it was sent at t=0).
        h.advance(5.0)
        h.deliver_ack(0)  # first dupack
        assert h.sender.stats.fast_retransmits == 1

    def test_no_duplicate_retransmit_within_rtt(self):
        h = make_harness(cwnd=8.0)
        h.give_app_packets(100)
        h.advance(0.5)
        h.deliver_ack(0)
        for _ in range(3):
            h.deliver_ack(0)
        assert h.sent_seqnos().count(1) == 2
        # Immediate extra dupacks must not resend packet 1 again.
        h.deliver_ack(0)
        h.deliver_ack(0)
        h.deliver_ack(0)
        assert h.sent_seqnos().count(1) == 2

    def test_at_most_one_reduction_per_rtt(self):
        h = make_harness(cwnd=16.0)
        h.give_app_packets(100)
        h.advance(0.5)
        h.deliver_ack(0)
        for _ in range(3):
            h.deliver_ack(0)
        after_first = h.sender.cwnd
        # A second loss signal within the same RTT: no further shrink.
        h.advance(0.01)
        for _ in range(3):
            h.deliver_ack(0)
        assert h.sender.cwnd == after_first

    def test_timeout_restarts_slow_start_from_two(self):
        h = make_harness(cwnd=10.0, initial_rto=1.0, min_rto=1.0)
        h.give_app_packets(100)
        h.advance(1.5)
        assert h.sender.stats.timeouts == 1
        assert h.sender.cwnd == 2.0
        assert h.sender.in_slow_start


class TestVegasEpochs:
    def test_no_adjustment_mid_epoch(self):
        h = make_harness(cwnd=4.0)
        h.give_app_packets(1000)
        ack_after(h, 0.5)
        cwnd = h.sender.cwnd
        marker = h.sender._epoch_marker
        # An ACK below the epoch marker must not re-adjust the window.
        h.advance(0.1)
        h.deliver_ack(marker - 2)
        assert h.sender.cwnd == cwnd

    def test_protocol_name(self):
        assert VegasSender.protocol_name == "vegas"
