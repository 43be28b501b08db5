"""Default engine dispatch: the engine follows from the input.

``ScenarioConfig.engine`` is unset by default and ``run_scenario`` picks
per cell: the batch engine inside its envelope, the object engine
everywhere else, and the object engine again when the batch engine's
tie guard gives a cell up.  Forcing either engine still works, and a
forced ``"batch"`` still refuses loudly outside the envelope.  Pinned
here: which way every kind of cell the performance ledger builds goes
(and that every TCP cell of its two paper-artefact workloads,
``fig2_sweep`` and ``apps_closed``, finishes on the batch engine), that
the choice never changes a number or a cache key, what the fallback
leaves behind in the run log, that ``run_scenario`` frees what it
built, and that it is the one door: ``attach`` reaches every scenario it builds (the
fallback's too, the hybrid foreground's too), and any packet cell the
config tables can spell is either rejected up front or runs to finite
numbers.
"""

from __future__ import annotations

import gc
import math
import sys
import weakref
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import ENGINES
from repro.engine.batch import BatchScenario, BatchTieError
from repro.experiments.cache import ResultCache
from repro.experiments.config import (
    BATCH_ENVELOPE,
    CONFIG_SCHEMA_VERSION,
    PROTOCOLS,
    QUEUES,
    WORKLOADS,
    ScenarioConfig,
    paper_config,
)
from repro.experiments.results import ScenarioMetrics
from repro.experiments.runlog import (
    RunLog,
    read_runlog,
    render_summary,
    summarize_runlog,
)
from repro.experiments.scenario import Scenario, run_scenario
from repro.experiments.sweep import run_many

#: One short cell of every kind the six ledger workloads build
#: (benchmarks/ledger/workloads.py), with the engine each must resolve
#: to.  Figure 2's legend contributes udp / reno / reno_delack / vegas
#: over fifo and red; apps_closed the three closed-loop workloads;
#: meanfield the fluid and hybrid backends; the pacing and Tahoe
#: ablations ride along as the remaining envelope boundary.
SHORT = dict(n_clients=6, duration=4.0, seed=3)
LEDGER_CELLS = [
    ("reno-fifo-open", dict(protocol="reno"), "batch"),
    ("reno-red-open", dict(protocol="reno", queue="red"), "batch"),
    ("vegas-fifo-open", dict(protocol="vegas"), "batch"),
    ("vegas-red-open", dict(protocol="vegas", queue="red"), "batch"),
    ("reno-fifo-rpc", dict(protocol="reno", workload="rpc"), "batch"),
    ("vegas-red-rpc", dict(protocol="vegas", queue="red", workload="rpc"), "batch"),
    ("udp", dict(protocol="udp"), "object"),
    ("reno-delack", dict(protocol="reno_delack"), "batch"),
    ("reno-bsp", dict(protocol="reno", workload="bsp"), "batch"),
    ("vegas-red-bulk", dict(protocol="vegas", queue="red", workload="bulk"), "batch"),
    ("reno-paced", dict(protocol="reno", pacing=True), "object"),
    ("tahoe", dict(protocol="tahoe"), "object"),
    ("fluid", dict(backend="fluid"), "object"),
    ("hybrid", dict(backend="hybrid", hybrid_foreground_flows=3), "object"),
]

#: A cell the batch tie model gives up on: equal access and bottleneck
#: rates put every burst on one serialization grid, and a zero think
#: time issues requests at grid instants too, so two flows' packets
#: reach the gateway together with nothing modelled to order them.
TIE_CELL = dict(
    workload="rpc", rpc_think_time=0.0, client_rate_bps=3e6, n_clients=4,
    duration=3.0, seed=3,
)


def test_the_knob_did_not_grow():
    """Two forcing values, unset by default, no new schema."""
    assert ENGINES == ("object", "batch")
    assert ScenarioConfig().engine is None
    assert CONFIG_SCHEMA_VERSION == 5


@pytest.mark.parametrize(
    "overrides,expected",
    [(cell, engine) for _, cell, engine in LEDGER_CELLS],
    ids=[label for label, _, _ in LEDGER_CELLS],
)
def test_ledger_cells_resolve_and_match_the_oracle(overrides, expected):
    """Each kind of ledger cell goes the expected way, never raises,
    and the default's metrics equal the forced object engine's.  A
    packet cell that resolves to object is one a forced batch engine
    refuses, with the envelope row's message."""
    config = paper_config(**SHORT, **overrides)
    assert config.resolved_engine() == expected
    if expected == "object" and config.backend == "packet":
        with pytest.raises(ValueError) as refused:
            run_scenario(config.with_(engine="batch"))
        assert str(refused.value) == config.batch_envelope_violation()
    result = run_scenario(config)
    # The fluid backend has no flows, hence no flow engine.
    assert result.engine == ("" if config.backend == "fluid" else expected)
    metrics = ScenarioMetrics.from_result(result)
    assert metrics.perf_engine == result.engine
    oracle = ScenarioMetrics.from_result(run_scenario(config.with_(engine="object")))
    assert metrics == oracle


def test_forcing_still_forces():
    config = paper_config(**SHORT)
    assert run_scenario(config.with_(engine="object")).engine == "object"
    assert run_scenario(config.with_(engine="batch")).engine == "batch"
    # Outside the envelope the default falls through silently, the
    # forced engine refuses, and the message is the validator's.
    udp = paper_config(protocol="udp", **SHORT)
    assert udp.resolved_engine() == "object"
    assert udp.batch_envelope_violation() == (
        "the batch engine supports reno/vegas/reno_delack only; "
        "got protocol 'udp'"
    )
    with pytest.raises(ValueError, match="reno_delack only; got protocol 'udp'"):
        run_scenario(udp.with_(engine="batch"))
    with pytest.raises(ValueError, match="reno_delack only; got protocol 'udp'"):
        udp.validate_batch_engine()
    assert ScenarioMetrics.from_result(run_scenario(udp)) == ScenarioMetrics.from_result(
        run_scenario(udp.with_(engine="object"))
    )
    assert paper_config(**SHORT).batch_envelope_violation() is None


def _paper_artefact_cells(seed: int) -> dict:
    """Every config the ledger's ``Fig2Sweep`` and ``AppsClosed`` build
    for ``seed``, shortened to 6 simulated seconds."""
    ledger = str(Path(__file__).resolve().parents[1] / "benchmarks" / "ledger")
    sys.path.insert(0, ledger)  # workloads.py imports its siblings by name
    try:
        import workloads
    finally:
        sys.path.remove(ledger)
    return {
        f"{workload.name}/{key}": config.with_(duration=6.0)
        for workload in (workloads.Fig2Sweep(), workloads.AppsClosed())
        for key, config in workload.configs(seed).items()
    }


@pytest.mark.parametrize("seed", range(1, 9))
def test_paper_artefact_cells_finish_on_batch(seed):
    """The 15 TCP cells of Figure 2 and the 6 closed-loop cells resolve
    to batch and stay there: a guard trip would show as
    ``result.engine == "object"``.  Figure 2's 3 UDP cells resolve to
    the object engine, which a forced batch engine refuses, and their
    default run is the object run."""
    cells = _paper_artefact_cells(seed)
    assert len(cells) == 24
    expected, engines = {}, {}
    for key, config in cells.items():
        expected[key] = ("object",) * 2 if config.protocol == "udp" else ("batch",) * 2
        result = run_scenario(config)
        engines[key] = (config.resolved_engine(), result.engine)
        if config.protocol == "udp":
            with pytest.raises(ValueError, match="only; got protocol 'udp'"):
                config.with_(engine="batch").validate()
            assert ScenarioMetrics.from_result(result) == ScenarioMetrics.from_result(
                run_scenario(config.with_(engine="object"))
            )
    assert engines == expected
    assert sum(engine == ("batch", "batch") for engine in engines.values()) == 21


def test_hand_built_scenario_is_the_object_engine():
    """``Scenario(config)`` -- what the obs-dir / trace-file / stream
    paths and the observed_n40 workload call -- ignores the dispatch."""
    config = paper_config(**SHORT)
    assert config.resolved_engine() == "batch"
    scenario = Scenario(config)
    assert type(scenario) is Scenario
    assert scenario.run().engine == "object"


def test_batch_scenario_shares_scenario_run():
    """One ``run()``: the ledger's tracer wraps ``Scenario.run`` and the
    ``__init__`` overriders only, so a batch run is seen only if it
    goes through both."""
    assert issubclass(BatchScenario, Scenario)
    assert "run" not in vars(BatchScenario)
    assert "_collect" not in vars(BatchScenario)
    result = run_scenario(paper_config(obs_profile=True, **SHORT))
    profile = result.obs.engine
    assert profile.events_executed == result.events_executed > 0
    assert any(
        stat["category"].startswith("BatchScenario.")
        for stat in profile.as_dict()["categories"]
    )


# ----------------------------------------------------------------------
# Cache identity
# ----------------------------------------------------------------------
def test_digest_is_what_it_was():
    """Literal digests computed at the parent commit, where the engine
    field defaulted to "object": making it unset moved no cache key."""
    assert ScenarioConfig().config_digest() == (
        "928e667a6b401e1edc5702a4405b49b70f72cfe94b060b30984450a9280f83c6"
    )
    rpc = paper_config(workload="rpc", n_clients=7)
    for engine in (None, "object", "batch"):
        assert rpc.with_(engine=engine).config_digest() == (
            "7faf02577592881f542318f40f67793926ec7692eb40641918e5553fdb022867"
        )


def test_object_era_cache_is_a_full_hit_under_the_default(tmp_path):
    configs = [paper_config(**dict(SHORT, seed=s)) for s in (1, 2, 3)]
    cache = str(tmp_path / "cache")
    written = run_many(
        [c.with_(engine="object") for c in configs], processes=1, cache=cache
    )
    log_path = str(tmp_path / "run.jsonl")
    with RunLog(log_path) as log:
        read = run_many(configs, processes=1, cache=cache, run_log=log)
    assert read == written
    assert [m.perf_engine for m in read] == ["object"] * 3  # not re-run
    events = [e["event"] for e in read_runlog(log_path)]
    assert events.count("cache_hit") == 3 and "task_start" not in events
    assert ResultCache(cache).get(configs[0].with_(engine="batch")) == written[0]


# ----------------------------------------------------------------------
# The tie guard
# ----------------------------------------------------------------------
def test_guard_trip_falls_back_or_propagates(tmp_path):
    config = paper_config(**TIE_CELL)
    assert config.resolved_engine() == "batch"
    with pytest.raises(BatchTieError, match="cannot order"):
        run_scenario(config.with_(engine="batch"))
    result = run_scenario(config)
    assert result.engine == "object"
    assert ScenarioMetrics.from_result(result) == ScenarioMetrics.from_result(
        run_scenario(config.with_(engine="object"))
    )

    # ... and the run log says so, beside a cell that did not trip.
    log_path = str(tmp_path / "run.jsonl")
    with RunLog(log_path) as log:
        run_many([config, paper_config(**SHORT)], processes=1, retries=0, run_log=log)
    done = {e["index"]: e for e in read_runlog(log_path) if e["event"] == "task_done"}
    assert done[0]["engine"] == "object" and done[0]["engine_fallback"] is True
    assert done[1]["engine"] == "batch" and "engine_fallback" not in done[1]
    engines = summarize_runlog(read_runlog(log_path))["engines"]
    assert engines["object"]["cells"] == 1 and engines["object"]["fallbacks"] == 1
    assert engines["batch"]["cells"] == 1 and engines["batch"]["fallbacks"] == 0
    summary = render_summary(summarize_runlog(read_runlog(log_path)))
    assert "Per-engine breakdown" in summary


def test_same_instant_arrivals_pop_in_history_order():
    """The tie model itself, on hand-made histories: of two arrivals
    at one instant, the one whose chain of push times sorts lower goes
    first -- here a burst head whose trigger (an ACK that left the
    gateway 2 ms ago) was pushed before the other flow's previous
    packet started serializing (0.8 ms ago)."""
    scenario = BatchScenario(paper_config(**SHORT))
    now = 5.0
    a, b = SimpleNamespace(flow_id=0), SimpleNamespace(flow_id=1)
    waited = (4.9972, (4.9964, (4.9956, (4.9936, 7))))  # third of its burst
    head = (4.9972, (4.9952, 9))  # started at its trigger
    scenario._gw_due[now] = [(waited, a), (head, b)]
    assert scenario._pop_tied(now, scenario._gw_due.pop(now)) is b
    assert scenario._pop_tied(now, scenario._gw_due.pop(now)) is a
    assert now not in scenario._gw_due
    # Same start, same push time, and one history runs out: undecidable.
    longer = (4.9972, (4.9952, (4.99, 3)))
    with pytest.raises(BatchTieError, match=r"flows \[0, 1\]"):
        scenario._pop_tied(now, [(head, a), (longer, b)])
    # A Poisson- or workload-triggered head (push time unknown) against
    # a modelled one: undecidable too.
    with pytest.raises(BatchTieError):
        scenario._pop_tied(now, [((4.9972, (None, 9)), a), (head, b)])


# ----------------------------------------------------------------------
# Teardown
# ----------------------------------------------------------------------
@pytest.mark.parametrize("engine", ENGINES)
def test_run_scenario_leaves_nothing_for_the_cyclic_collector(engine):
    """A finished scenario graph is cyclic many times over; left to the
    generational collector it piles up tens of MB per large cell across
    a sweep.  ``run_scenario`` releases what it built, so with the
    collector off nothing is left for it to find."""
    config = paper_config(n_clients=60, duration=5.0, engine=engine)
    run_scenario(config.with_(seed=9))  # first-call imports make their own garbage
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for seed in (1, 2, 3):
            result = run_scenario(config.with_(seed=seed))
            assert result.throughput_packets > 0  # the result outlives the release
            assert gc.collect() < 100
    finally:
        if was_enabled:
            gc.enable()


def test_hand_built_scenarios_are_not_released():
    """``run()`` itself releases nothing: callers that build a scenario
    by hand go on reading it (senders, network, sim) afterwards."""
    scenario = Scenario(paper_config(**SHORT))
    scenario.run()
    assert len(scenario.senders) == SHORT["n_clients"]
    assert scenario.network.bottleneck_queue.stats.arrivals > 0
    assert scenario.sim.events_executed > 0


# ----------------------------------------------------------------------
# The door: run_scenario(config, attach=...)
# ----------------------------------------------------------------------
def _refuse_part_way(self):
    """A ``BatchScenario._execute`` that gives the cell up half-way."""
    self.sim.run(until=self.config.duration / 2)
    raise BatchTieError("scripted guard trip")


@pytest.mark.parametrize(
    "overrides,built",
    [
        pytest.param({}, BatchScenario, id="batch"),
        pytest.param({"engine": "object"}, Scenario, id="object"),
        pytest.param({"protocol": "tahoe"}, Scenario, id="outside-envelope"),
    ],
)
def test_attach_sees_each_built_scenario_once(overrides, built):
    seen = []
    result = run_scenario(paper_config(**SHORT, **overrides), attach=seen.append)
    assert [type(scenario) for scenario in seen] == [built]
    assert result.engine == built.engine_name
    assert ScenarioMetrics.from_result(result) == ScenarioMetrics.from_result(
        run_scenario(paper_config(**SHORT, **overrides))
    )


def test_attach_is_called_again_on_the_fallback_scenario(monkeypatch):
    monkeypatch.setattr(BatchScenario, "_execute", _refuse_part_way)
    config = paper_config(**SHORT)
    seen = []
    result = run_scenario(config, attach=lambda s: seen.append(type(s)))
    assert seen == [BatchScenario, Scenario]
    assert result.engine == "object"
    # Forced, the error still propagates -- after one attach, no second.
    del seen[:]
    with pytest.raises(BatchTieError, match="scripted"):
        run_scenario(config.with_(engine="batch"), attach=lambda s: seen.append(type(s)))
    assert seen == [BatchScenario]


def test_fluid_builds_no_scenario_to_attach_to():
    seen = []
    result = run_scenario(paper_config(backend="fluid", **SHORT), attach=seen.append)
    assert seen == [] and result.engine == ""


def test_hybrid_goes_through_the_door_and_is_released():
    """The hybrid foreground is attached to, run and released like any
    packet scenario: once the result is all that is held, plain
    reference counting has freed the flows."""
    config = paper_config(
        backend="hybrid", hybrid_foreground_flows=3, n_clients=200,
        duration=4.0, seed=3, obs_trace=("cwnd", "queue"), forensics=True,
    )
    from repro.core.hybrid_backend import HybridScenario

    # The same cell run by hand and never released: the door must match it.
    by_hand = ScenarioMetrics.from_result(HybridScenario(config).run())
    held = []

    def attach(scenario):
        assert type(scenario) is HybridScenario
        held.append(weakref.ref(scenario))
        held.append(weakref.ref(scenario.senders[0]))
        held.append(weakref.ref(scenario.network.bottleneck_interface))

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()  # so a dead reference below is refcounting's doing
    try:
        result = run_scenario(config, attach=attach)
        assert len(held) == 3 and all(ref() is None for ref in held)
    finally:
        if was_enabled:
            gc.enable()
    metrics = ScenarioMetrics.from_result(result)
    for spec in fields(metrics):  # bit for bit: repr tells -0.0 from 0.0
        if spec.name not in ScenarioMetrics._WALL_CLOCK_FIELDS:
            assert repr(getattr(metrics, spec.name)) == repr(
                getattr(by_hand, spec.name)
            ), spec.name
    assert result.obs.flows[0].cwnd.rows  # the result outlives the release
    assert result.forensics is not None


# One short cell of anything the packet backend's tables enumerate.
_FRONT_DOOR_CELLS = st.fixed_dictionaries(
    dict(
        protocol=st.sampled_from(PROTOCOLS),
        queue=st.sampled_from(QUEUES),
        workload=st.sampled_from(WORKLOADS),
        # The envelope's sources, and one from outside it.
        traffic=st.sampled_from(BATCH_ENVELOPE["traffic"] + ("pareto_onoff",)),
        pacing=st.booleans(),
        n_clients=st.integers(1, 12),
        duration=st.sampled_from((0.5, 1.0, 2.0)),
        seed=st.integers(1, 50),
    )
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_FRONT_DOOR_CELLS)
# Two numeric fields validate() used to wave through into a mid-run
# ZeroDivisionError (batch envelope's tie row) and SimulationError.
@example(dict(n_clients=4, duration=2.0, bottleneck_rate_bps=0.0))
@example(dict(n_clients=4, duration=2.0, client_delay=-0.001))
# What failed late or not at all until validate() named it: a negative
# timer (SimulationError mid-run), a queue its constructor refuses, a
# window too short for a c.o.v. (cov = nan).
@example(dict(n_clients=4, duration=2.0, protocol="reno_delack", ack_delay=-0.1))
@example(dict(n_clients=4, duration=2.0, buffer_capacity=0))
@example(dict(n_clients=4, duration=2.0, queue="red", red_min_th=40.0))  # = max_th
@example(dict(n_clients=4, duration=2.0, queue="ared", red_max_p=0.0))
@example(dict(n_clients=4, duration=2.0, queue="red", red_weight=1.5))
@example(dict(n_clients=4, duration=2.0, warmup=1.8))
def test_every_packet_cell_is_rejected_up_front_or_runs_to_finite_metrics(cell):
    """The front door over the packet backend's own tables: a cell
    either fails ``validate()`` with a ValueError or runs to finite
    numbers -- no mid-run exception, no silent NaN, and under default
    dispatch no ``BatchTieError`` gets out."""
    config = paper_config(**cell)
    try:
        config.validate()
    except ValueError:
        return
    result = run_scenario(config)
    assert math.isfinite(result.cov), cell
    assert math.isfinite(result.throughput_pps) and result.throughput_pps >= 0, cell
    assert result.engine in ENGINES
