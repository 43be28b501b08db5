"""Differential tests: the kernel against its spec and its frozen past.

The simulator pops events in ascending ``(time, priority, seq)`` order,
a total order, so its whole scheduling contract is stated by a sorted
list of those keys.  The kernel-level test replays deterministic
pseudo-random schedule and cancel traffic (ties, cancels, far-future
events) through the run loop in each of its three modes (plain,
profiler attached, ``debug=True``) and diffs the execution order
against that model; the calendar-vs-model property tests live in
tests/test_timer_wheel.py.

Two calendars ago the kernel ran on a binary heap of ``Event`` objects;
what it produced survives as a frozen oracle:
``goldens/scheduler/heap_oracle.json`` holds, for a matrix of small
congested scenarios (every transport x FIFO/RED x open-loop/RPC, plus a
buffer-depth sweep), the event count and the digests of the
:class:`ScenarioMetrics` and the ns trace file that heap produced.  It
held through the timer wheel that replaced it and now holds the tuple
heap that replaced the wheel: every cell must still reproduce it byte
for byte, and ``goldens/scheduler/heap_cache`` -- a result cache
written under ``scheduler="heap"`` -- must still be a 100 % hit, which
is the evidence behind ``scheduler`` never having entered the config
digest (today it is only a ledger row name).
"""

import hashlib
import io
import json
import random
import shutil
from pathlib import Path

import pytest

from repro.experiments.config import CONFIG_SCHEMA_VERSION, PROTOCOLS, paper_config
from repro.experiments.results import ScenarioMetrics
from repro.experiments.runlog import RunLog
from repro.experiments.runner import SweepRunner, run_one
from repro.experiments.scenario import Scenario
from repro.net.tracefile import NsTraceWriter
from repro.sim.engine import SCHEDULERS, Simulator
from tests.helpers import KERNEL_MODES, kernel_in_mode, physics_payload

ORACLE_DIR = Path(__file__).parent / "goldens" / "scheduler"
ORACLE_PATH = ORACLE_DIR / "heap_oracle.json"

# Every transport x {fifo, red} x {open, rpc}; reno_ecn needs an
# ECN-marking gateway so its FIFO cells are invalid by construction.
MATRIX = [
    (protocol, queue, workload)
    for protocol in PROTOCOLS
    for queue in ("fifo", "red")
    for workload in ("open", "rpc")
    if not (protocol == "reno_ecn" and queue == "fifo")
]


def _differential_config(protocol, queue, workload, **overrides):
    # Small but congested: a 0.4 Mb/s bottleneck keeps 3 senders in
    # loss/retransmission territory so the scheduler is exercised on
    # cancels, timers, and queue dynamics, not just happy-path sends.
    return paper_config(
        protocol=protocol,
        queue=queue,
        workload=workload,
        n_clients=3,
        duration=6.0,
        seed=11,
        bottleneck_rate_bps=0.4e6,
        **overrides,
    )


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _fingerprint(config):
    """Event count plus digests of the metrics record and the ns trace."""
    scenario = Scenario(config)
    stream = io.StringIO()
    NsTraceWriter(stream).attach(scenario.network.bottleneck_queue)
    result = scenario.run()
    trace = stream.getvalue()
    assert trace  # the cell actually pushed traffic through
    physics = physics_payload(ScenarioMetrics.from_result(result))
    return {
        "events": result.events_executed,
        "metrics_sha256": _sha256(json.dumps(physics, sort_keys=True)),
        # Byte-identical ns trace: same packets, same uids, same times,
        # in the same order -- the strongest equivalence the scenario
        # exposes.
        "trace_sha256": _sha256(trace),
    }


def _check_against_heap_oracle(cell, config, request):
    oracle = json.loads(ORACLE_PATH.read_text())
    fingerprint = _fingerprint(config)
    if request.config.getoption("--update-goldens"):
        oracle[cell] = fingerprint
        ORACLE_PATH.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n")
        return
    assert fingerprint == oracle[cell], (
        f"{cell} no longer reproduces what the heap scheduler produced "
        "(see tests/goldens/README.md before regenerating)"
    )


@pytest.mark.parametrize("protocol,queue,workload", MATRIX)
def test_schedulers_produce_identical_results(protocol, queue, workload, request):
    _check_against_heap_oracle(
        f"{protocol}-{queue}-{workload}",
        _differential_config(protocol, queue, workload),
        request,
    )


# Buffer depth moves the loss pattern between the three regimes the
# paper sweeps -- shallow (drop-dominated), the paper default, and deep
# (delay-dominated) -- and with it the mix of cancels and timer churn.
# Both queue disciplines are swept: RED's averaged occupancy makes its
# drop decisions state-dependent in a way droptail's are not.
@pytest.mark.parametrize("queue", ["fifo", "red"])
@pytest.mark.parametrize("buffer_capacity", [20, 50, 200])
def test_schedulers_identical_across_buffer_depths(buffer_capacity, queue, request):
    _check_against_heap_oracle(
        f"buffer{buffer_capacity}-{queue}",
        _differential_config("reno", queue, "open", buffer_capacity=buffer_capacity),
        request,
    )


def _heap_cache_configs():
    return [
        paper_config(protocol=protocol, n_clients=2, duration=3.0, seed=seed)
        for protocol, seed in (("udp", 1), ("reno", 2))
    ]


def _never_run(config):
    raise AssertionError(f"cache miss: {config.label} was re-run")


def test_scheduler_does_not_change_config_digest(tmp_path):
    """A cache populated under ``scheduler="heap"`` (by the last commit
    that had it) is a 100 % hit today: the digest never saw the knob and
    the schema version was not bumped when the heap was deleted."""
    assert CONFIG_SCHEMA_VERSION == 5
    cache_dir = tmp_path / "cache"
    shutil.copytree(ORACLE_DIR / "heap_cache", cache_dir)
    configs = _heap_cache_configs()
    log = RunLog()
    cached = SweepRunner(
        processes=1, retries=0, cache=str(cache_dir), task=_never_run, run_log=log
    ).run(configs)
    assert log.progress.cached == len(configs)
    assert not any(metrics.failed for metrics in cached)
    # ...and what the old heap computed is what the kernel computes.
    assert cached == [run_one(config) for config in configs]


# ----------------------------------------------------------------------
# Kernel-level differential
# ----------------------------------------------------------------------
_CHAIN_DELAY = 0.0305


def _chains(tag):
    # Bounded re-scheduling from inside callbacks: chains stop once the
    # tag leaves the original range.
    return tag % 7 == 0 and tag < 4000


def _drive(sim, ops, log):
    """Replay a pre-generated op sequence against one simulator."""
    handles = {}

    def fire(tag):
        log.append((sim.now, tag))
        if _chains(tag):
            sim.schedule(_CHAIN_DELAY, fire, tag + 4000)

    for op, payload in ops:
        if op == "at":
            tag, time, priority = payload
            handles[tag] = sim.schedule_at(time, fire, tag, priority=priority)
        elif payload in handles:
            sim.cancel(handles[payload])


def _model_order(ops):
    """The spec: live entries fire in sorted ``(time, priority, seq)``
    order, ``seq`` counting every schedule call."""
    pending = {}
    seq = 0
    for op, payload in ops:
        if op == "at":
            tag, time, priority = payload
            pending[tag] = (time, priority, seq, tag)
            seq += 1
        else:
            pending.pop(payload, None)
    calendar = sorted(pending.values())
    log = []
    while calendar:
        time, _, _, tag = calendar.pop(0)
        log.append((time, tag))
        if _chains(tag):
            calendar.append((time + _CHAIN_DELAY, 0, seq, tag + 4000))
            calendar.sort()
            seq += 1
    return log


def _op_sequence(seed):
    """Times from the next instant to far future, plus ties and cancels."""
    rng = random.Random(seed)
    ops = []
    for tag in range(400):
        bucket = rng.random()
        if bucket < 0.5:
            time = rng.uniform(0.0, 0.12)  # transmission scale
        elif bucket < 0.8:
            time = rng.uniform(0.12, 30.0)  # timer scale
        elif bucket < 0.95:
            time = rng.uniform(30.0, 120.0)  # minutes out
        else:
            time = rng.choice([0.05, 1.0, 33.0, 2000.0])  # ties + far future
        ops.append(("at", (tag, time, rng.choice((0, 0, 0, 1)))))
        if rng.random() < 0.25:
            ops.append(("cancel", rng.randrange(tag + 1)))
    return ops


@pytest.mark.parametrize("seed", range(5))
def test_kernel_event_order_identical(seed):
    ops = _op_sequence(seed)
    expected = _model_order(ops)
    for mode in KERNEL_MODES:
        sim = kernel_in_mode(mode)
        log = []
        _drive(sim, ops, log)
        sim.run(until=150.0)
        sim.run()  # drain the far-future tail
        assert log == expected, f"{mode} mode diverged from the sorted-list model"
        assert sim.now == max(150.0, expected[-1][0])
        assert sim.events_executed == len(expected)
        assert sim.live_events == 0


def test_unknown_scheduler_rejected_everywhere():
    assert SCHEDULERS == ("wheel",)
    for scheduler in ("heap", "calendar"):
        with pytest.raises(ValueError, match="wheel"):
            paper_config(scheduler=scheduler).validate()
        with pytest.raises(TypeError):
            Simulator(scheduler=scheduler)
    with pytest.raises(ValueError, match="non-negative"):
        Simulator(start_time=-1.0)
