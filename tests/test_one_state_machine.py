"""The batch engine has no TCP of its own.

``BatchScenario`` runs the object engine's sender and sink classes
behind three seams -- a node facade, a timer facade and (sinks run
inline) a settable clock -- so a window, RTT, RTO or retransmission
rule exists once, under ``repro.transport``, and a change to it is by
construction the same change on both engines.  These tests pin that:
the classes, that the senders' methods are what a batch cell executes,
that a mutated rule moves both engines alike, and the seams themselves.
"""

from __future__ import annotations

import pytest

from repro.engine.batch import BatchScenario
from repro.experiments.config import paper_config
from repro.experiments.results import ScenarioMetrics
from repro.experiments.scenario import Scenario, run_scenario
from repro.sim.engine import Simulator
from repro.sim.timers import Timer
from repro.transport.reno import RenoSender
from repro.transport.tcp_base import TcpSender
from repro.transport.vegas import VegasSender
from tests.helpers import TcpHarness

#: The paper's cell at the knee: ~5 % loss, dozens of fast retransmits
#: and timeouts, flows alternating between backlogged and idle.
CONGESTED = dict(n_clients=40, duration=8.0, seed=3)


@pytest.mark.parametrize("protocol", ["reno", "reno_delack", "vegas", "udp"])
def test_batch_flows_are_the_object_engines_classes(protocol):
    config = paper_config(protocol=protocol, n_clients=3, duration=1.0)
    if protocol == "udp":  # outside the envelope: no batch flows to build
        assert config.resolved_engine() == "object"
        with pytest.raises(ValueError, match="only; got protocol 'udp'"):
            BatchScenario(config)
        return
    batch, reference = BatchScenario(config), Scenario(config)
    for attribute in ("senders", "sinks"):
        built, expected = getattr(batch, attribute), getattr(reference, attribute)
        assert len(built) == len(expected) == 3
        assert [type(agent) for agent in built] == [type(agent) for agent in expected]


def _count(monkeypatch, cls, method, stat):
    """Wrap ``cls.method`` on the class: calls made, and how much of
    ``stats.<stat>`` was booked inside them."""
    original = getattr(cls, method)
    seen = {"calls": 0, "booked": 0}

    def counted(self, *args):
        before = getattr(self.stats, stat)
        original(self, *args)
        seen["calls"] += 1
        seen["booked"] += getattr(self.stats, stat) - before

    monkeypatch.setattr(cls, method, counted)
    return seen


@pytest.mark.parametrize(
    "protocol,cls,method",
    [("reno", RenoSender, "_fast_retransmit"), ("vegas", VegasSender, "_vegas_retransmit")],
)
def test_a_batch_cell_executes_the_senders_own_methods(monkeypatch, protocol, cls, method):
    recoveries = _count(monkeypatch, cls, method, "fast_retransmits")
    timeouts = _count(monkeypatch, TcpSender, "_timeout", "timeouts")
    result = run_scenario(paper_config(protocol=protocol, engine="batch", **CONGESTED))
    assert result.engine == "batch"
    assert recoveries["booked"] == result.fast_retransmits > 0
    assert timeouts["calls"] == timeouts["booked"] == result.timeouts > 0
    if protocol == "reno":  # Vegas declines a second retransmit within an RTT
        assert recoveries["calls"] == result.fast_retransmits


def test_a_mutated_rule_moves_both_engines_alike(monkeypatch):
    """Reno without its duplicate-ACK rule: the default (batch) cell
    and the object cell still agree field for field, and both left the
    unpatched physics."""
    config = paper_config(protocol="reno", **CONGESTED)
    unpatched = ScenarioMetrics.from_result(run_scenario(config))
    assert unpatched.fast_retransmits > 0
    monkeypatch.setattr(RenoSender, "_on_dupack", lambda self: None)
    by_default = run_scenario(config)
    assert by_default.engine == "batch"
    mutated = ScenarioMetrics.from_result(by_default)
    assert mutated == ScenarioMetrics.from_result(
        run_scenario(config.with_(engine="object"))
    )
    assert mutated.fast_retransmits == 0
    assert mutated != unpatched


# ----------------------------------------------------------------------
# The seams
# ----------------------------------------------------------------------
def _timer_script(sim, timer, fired):
    """One scripted life of a retransmit timer; every observable answer."""
    answers = [timer.pending]
    timer.start(0.5)
    answers.append(timer.pending)
    sim.run(until=0.2)
    timer.start(0.5)  # again while pending: the 0.5 s expiry is void
    sim.run(until=0.6)
    answers.append((timer.pending, list(fired)))
    timer.cancel()
    timer.cancel()
    answers.append(timer.pending)
    timer.restart(0.25)
    sim.run(until=2.0)
    answers.append((timer.pending, list(fired)))
    return answers


def test_the_timer_facade_answers_like_a_timer(monkeypatch):
    sim = Simulator()
    fired = []
    timer = Timer(sim, lambda: fired.append((sim.now, timer.pending)))
    expected = _timer_script(sim, timer, fired)
    assert fired == [(0.85, False)]

    # No arrival inside the horizon: the timer is all that happens.
    scenario = BatchScenario(paper_config(n_clients=1, mean_gap=1e6, duration=2.0))
    sender = scenario.senders[0]
    slot_fired = []
    monkeypatch.setattr(
        TcpSender,
        "_timeout",
        lambda self: slot_fired.append((self.sim.now, self.rtx_timer.pending)),
    )
    assert _timer_script(scenario.sim, sender.rtx_timer, slot_fired) == expected
    assert slot_fired == fired


def test_bulk_booking_is_the_bookkeeping_half_of_app_arrival():
    """Arrivals that found the window shut, booked later with their own
    times, leave the sender where one ``app_arrival`` each would have."""
    one_by_one = TcpHarness(RenoSender)
    in_bulk = TcpHarness(RenoSender)
    for harness in (one_by_one, in_bulk):
        harness.give_app_packets(3)  # cwnd 1: one sent, two backlogged
    times = [0.125, 0.25, 0.375]
    for at in times:
        one_by_one.sim.run(until=at)
        one_by_one.give_app_packets(1)
    in_bulk.sim.run(until=times[-1])
    in_bulk.sender.app_arrival_bulk(times)
    for name in ("app_total", "t_seqno", "send_buffer_backlog", "stats", "_generation_times"):
        assert getattr(in_bulk.sender, name) == getattr(one_by_one.sender, name), name
    assert in_bulk.sent_seqnos() == one_by_one.sent_seqnos() == [0]


@pytest.mark.parametrize("protocol", ["reno", "vegas", "reno_delack"])
def test_a_replayed_arrival_that_can_transmit_runs_at_its_own_instant(
    monkeypatch, protocol
):
    """Why senders need no clock of their own under lazy arrivals: the
    replay takes the full ``app_arrival`` path only on an empty send
    buffer, and such a flow is armed, so that happens when the arrival
    is due -- cwnd rows and forensics state events are
    stamped by the simulator's clock with the arrival's own time, as
    the object engine's tick would stamp them."""
    emitted = []
    emit = BatchScenario._emit_arrival

    def recording(self, i, at):
        emitted.append((at, self.sim.now))
        emit(self, i, at)

    monkeypatch.setattr(BatchScenario, "_emit_arrival", recording)
    config = paper_config(
        protocol=protocol,
        obs_trace=("cwnd", "state"),
        forensics=True,
        **CONGESTED,
    )
    run = run_scenario(config.with_(engine="batch"))
    assert len(emitted) > 100 and all(at == now for at, now in emitted)
    reference = run_scenario(config.with_(engine="object"))
    assert run.cwnd_traces() == reference.cwnd_traces()
    for flow, probe in reference.obs.flows.items():
        assert run.obs.flows[flow].cwnd.rows == probe.cwnd.rows
        assert run.obs.flows[flow].states.rows == probe.states.rows
    assert run.forensics.as_dict() == reference.forensics.as_dict()
