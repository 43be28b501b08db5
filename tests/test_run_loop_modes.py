"""The kernel's three run modes, pinned on one congested cell.

``Simulator.run`` has a plain mode, a profiled mode (a profiler is
attached) and a debug mode (``debug=True``: invariants recounted after
every event).  ``goldens/run_loop/modes.json`` holds, for each, what the
mode did to the delayed-ACK cell of ``test_hop_chain_order.py`` (timers,
cancels and drops on both paths): the digest of the ordered
``time seq Class.method`` list of executed events, the digest of the
event-pool and packet-free-list populations seen at the start of every
event (so a recycling decision that moves shows at the event after it),
the final clock, counters and pool populations, and the digest of the
``category depth`` sequence the profiler was handed.  Captured at the
commit before the fast, profiled and debug loops and ``step()`` became
one loop, except the three pool fields, which moved once since, on
purpose (see the last test); see tests/goldens/README.md before
regenerating.

The kernel has no per-event hook without a profiler, so the executed
order is taken by arming every callback inside a recording wrapper
(``Simulator.schedule_at`` patched for the test); the wrapper holds no
event and no argument, so it moves no refcount the recycling guards read.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.config import paper_config
from repro.experiments.scenario import Scenario
from repro.obs.engineprof import EngineProfiler, callback_category
from repro.sim.engine import Simulator
from tests.helpers import KERNEL_MODES
from tests.test_hop_chain_order import CELLS
from tests.test_hop_chain_order import GOLDEN_PATH as HOP_CHAIN_GOLDEN_PATH

GOLDEN_PATH = Path(__file__).parent / "goldens" / "run_loop" / "modes.json"
CELL = "reno_delack-fifo-n6-buffer5"


def _sha256(lines):
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


class _Recorded:
    """A callback that logs its event's key, then runs."""

    __slots__ = ("callback", "key", "log")

    def __init__(self, callback, log):
        self.callback = callback
        self.key = None
        self.log = log

    def __call__(self, *args):
        self.log(self.key)
        self.callback(*args)


class _RecordingProfiler(EngineProfiler):
    def __init__(self):
        super().__init__()
        self.noted = []

    def note_event(self, callback, elapsed, heap_depth):
        category = callback_category(callback.callback)
        self.noted.append(f"{category} {heap_depth}\n")
        super().note_event(callback, elapsed, heap_depth)


def _fingerprint(mode, monkeypatch):
    executed, pools = [], []
    arm = Simulator.schedule_at

    def recording_schedule_at(sim, time, callback, *args, priority=0):
        recorded = _Recorded(callback, log)
        event = arm(sim, time, recorded, *args, priority=priority)
        recorded.key = f"{time!r} {event.seq} {callback_category(callback)}\n"
        return event

    monkeypatch.setattr(Simulator, "schedule_at", recording_schedule_at)
    config = paper_config(
        duration=5.0, seed=1, engine="object", bottleneck_rate_bps=0.4e6, **CELLS[CELL]
    )

    def log(key):
        executed.append(key)
        pools.append(f"{len(sim._event_pool)} {len(free_packets)}\n")

    scenario = Scenario(config)
    sim = scenario.sim
    free_packets = scenario.network.packet_factory._free
    profiler = None
    if mode == "profiled":
        profiler = sim.attach_profiler(_RecordingProfiler())
    sim._debug = mode == "debug"
    assert sim.run(until=config.duration) == config.duration
    noted = [] if profiler is None else profiler.noted
    fingerprint = {
        "events": sim.events_executed,
        "events_sha256": _sha256(executed),
        "pools_sha256": _sha256(pools),
        "now": sim.now,
        "pending_events": sim.pending_events,
        "live_events": sim.live_events,
        "event_pool": len(sim._event_pool),
        "packet_free_list": len(free_packets),
        "noted": len(noted),
        "noted_sha256": _sha256(noted),
    }
    assert len(executed) == sim.events_executed
    if profiler is not None:
        assert profiler.events == sim.events_executed
        assert profiler.run_wall_time >= profiler.wall_time > 0.0
    return fingerprint


@pytest.mark.parametrize("mode", KERNEL_MODES)
def test_each_mode_executes_recycles_and_reports_as_before(
    mode, monkeypatch, request
):
    golden = json.loads(GOLDEN_PATH.read_text())
    fingerprint = _fingerprint(mode, monkeypatch)
    if request.config.getoption("--update-goldens"):
        golden[mode] = fingerprint
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    assert fingerprint == golden[mode]


def test_the_modes_differ_in_reporting_only():
    """One order, one final state and one set of recycling decisions
    -- the order being the one ``test_hop_chain_order.py`` takes by
    stepping.

    Before the loops were one, the debug loop ended this cell with 49
    pooled events and 20 free packets against the other two's 32 and 13:
    it discarded cancelled heads in a helper whose locals died on
    return, while the other two kept the last discarded event in a
    local (``dead``) until the next discard, so that event failed the
    refcount guard when it was re-armed and fired.  The one loop first
    kept the 32 / 13; it now clears ``dead`` after each discard, and the
    three pool fields of every row (event and packet pool sizes and the
    per-event populations digest) are the old debug loop's again.
    """
    golden = json.loads(GOLDEN_PATH.read_text())
    hop_chain = json.loads(HOP_CHAIN_GOLDEN_PATH.read_text())[CELL]
    for mode in KERNEL_MODES:
        for key, value in golden[mode].items():
            if not key.startswith("noted"):
                assert value == golden["fast"][key], (mode, key)
        for key in ("events", "events_sha256"):
            assert golden[mode][key] == hop_chain[key]
    assert golden["profiled"]["noted"] == golden["profiled"]["events"]
    assert golden["fast"]["noted"] == golden["debug"]["noted"] == 0
