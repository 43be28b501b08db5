"""Unit tests for restartable timers."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.timers import Timer


def make(sim):
    fired = []
    timer = Timer(sim, lambda: fired.append(sim.now))
    return timer, fired


def test_timer_fires_after_delay():
    sim = Simulator()
    timer, fired = make(sim)
    timer.start(2.0)
    sim.run()
    assert fired == [2.0]


def test_timer_pending_and_expiry():
    sim = Simulator()
    timer, _fired = make(sim)
    assert not timer.pending
    assert timer.expiry is None
    timer.start(3.0)
    assert timer.pending
    assert timer.expiry == 3.0


def test_timer_not_pending_after_firing():
    sim = Simulator()
    timer, _fired = make(sim)
    timer.start(1.0)
    sim.run()
    assert not timer.pending


def test_cancel_prevents_firing():
    sim = Simulator()
    timer, fired = make(sim)
    timer.start(1.0)
    timer.cancel()
    sim.run()
    assert fired == []
    assert not timer.pending


def test_cancel_idempotent():
    sim = Simulator()
    timer, _fired = make(sim)
    timer.cancel()
    timer.start(1.0)
    timer.cancel()
    timer.cancel()


def test_restart_supersedes_previous_schedule():
    sim = Simulator()
    timer, fired = make(sim)
    timer.start(1.0)
    timer.restart(5.0)
    sim.run()
    assert fired == [5.0]


def test_timer_can_be_reused_after_firing():
    sim = Simulator()
    timer, fired = make(sim)
    timer.start(1.0)
    sim.run(until=1.5)
    timer.start(1.0)
    sim.run()
    assert fired == [1.0, 2.5]


def test_timer_restart_from_callback():
    sim = Simulator()
    count = []

    def periodic():
        count.append(sim.now)
        if len(count) < 3:
            timer.start(1.0)

    timer = Timer(sim, periodic)
    timer.start(1.0)
    sim.run()
    assert count == [1.0, 2.0, 3.0]


def test_negative_delay_is_refused_by_name_and_leaves_the_timer_disarmed():
    sim = Simulator()
    timer, fired = make(sim)
    timer.start(2.0)
    with pytest.raises(SimulationError, match=r"negative delay -0\.5"):
        timer.start(-0.5)
    # The refused start had already cancelled the expiry it replaced.
    assert not timer.pending and timer.expiry is None
    sim.run()
    assert fired == [] and sim.live_events == 0
