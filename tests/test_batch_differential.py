"""Differential harness: the batch engine against the object engine.

The batch engine (``engine="batch"``, see ``repro.engine``) runs the
object engine's senders and sinks over fused transport events instead
of the per-hop topology.  Its correctness claim is not "close" but
*bit-identical*: on
every supported cell it must produce the same :class:`ScenarioMetrics`,
the same per-flow observability series, the same scalar snapshot and
the same forensics report as the per-flow object engine.

The matrix below covers Reno/Vegas x droptail/RED x open-loop/RPC plus
stress cells chosen to exercise the regimes where an unfaithful fusion
would diverge: deep overload (same-time event ties at the bottleneck
port), tiny buffers (timeout/fast-retransmit storms) and RED's averaged
occupancy.  A second matrix covers what the envelope gained after
that: delayed-ACK Reno under all four workloads, BSP and bulk under
Reno/Vegas, and a delayed-ACK cell whose timer and arrival instants
share one 10 ms grid.  The object engine is the oracle.  The same
matrix's UDP cells, and closed-loop UDP whose work units time out, now
hold the other side of the envelope: UDP left it (DESIGN.md section
15's keep rule), so a UDP cell resolves to the object engine, a forced
batch run refuses it by name, and the default run is the object run.

Paper-scale cells follow: the three cells on which the batch engine
once *did* differ (two flows' packets reaching the gateway at the
identical float time; DESIGN.md section 15), and a seeded random RED
matrix around them -- RED because its per-arrival RNG draw turns one
swapped pair of arrivals into a different run.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.experiments.config import ScenarioConfig, paper_config
from repro.experiments.results import ScenarioMetrics
from repro.experiments.scenario import run_scenario

#: Categories that exercise every obs stream both engines publish to.
ALL_TRACE = ("cwnd", "rtt", "state", "queue", "drops")

#: >= 12 seeded cells: the full protocol x queue x workload product at
#: moderate load, plus stress cells.  Each tuple is (label, overrides).
MATRIX = [
    (
        f"{protocol}-{queue}-{workload}",
        dict(
            protocol=protocol,
            queue=queue,
            workload=workload,
            n_clients=8,
            duration=5.0,
            seed=11,
            bottleneck_rate_bps=0.4e6,
            mean_gap=0.05,
        ),
    )
    for protocol in ("reno", "vegas")
    for queue in ("fifo", "red")
    for workload in ("open", "rpc")
] + [
    (
        "reno-fifo-overload",
        dict(
            protocol="reno",
            queue="fifo",
            n_clients=40,
            duration=4.0,
            seed=1,
            mean_gap=0.05,
        ),
    ),
    (
        "vegas-fifo-tiny-buffer",
        dict(
            protocol="vegas",
            queue="fifo",
            n_clients=12,
            duration=6.0,
            seed=7,
            buffer_capacity=8,
            mean_gap=0.04,
            bottleneck_rate_bps=0.3e6,
        ),
    ),
    (
        "reno-red-tiny-buffer",
        dict(
            protocol="reno",
            queue="red",
            n_clients=12,
            duration=6.0,
            seed=9,
            buffer_capacity=10,
            mean_gap=0.04,
            bottleneck_rate_bps=0.3e6,
        ),
    ),
    (
        "vegas-red-rpc-stress",
        dict(
            protocol="vegas",
            queue="red",
            workload="rpc",
            n_clients=10,
            duration=6.0,
            seed=3,
            bottleneck_rate_bps=0.3e6,
        ),
    ),
]


#: Closed-loop jobs small enough to finish several times in 5 s.
_SMALL_JOBS = dict(
    bsp_shuffle_packets=10, bsp_compute_time=0.1, bulk_job_packets=15, bulk_job_gap=0.2
)

#: What the envelope gained in PR 16, same moderate load as above.
WIDENED_MATRIX = [
    (
        f"{protocol}-{queue}-{workload}",
        dict(
            protocol=protocol,
            queue=queue,
            workload=workload,
            n_clients=8,
            duration=5.0,
            seed=11,
            bottleneck_rate_bps=0.4e6,
            mean_gap=0.05,
            **_SMALL_JOBS,
        ),
    )
    for protocol in ("udp", "reno_delack")
    for queue in ("fifo", "red")
    for workload in ("open", "rpc", "bsp", "bulk")
] + [
    (
        f"{protocol}-{queue}-{workload}",
        dict(
            protocol=protocol,
            queue=queue,
            workload=workload,
            n_clients=8,
            duration=5.0,
            seed=11,
            bottleneck_rate_bps=0.4e6,
            **_SMALL_JOBS,
        ),
    )
    for protocol, queue, workload in (
        ("reno", "fifo", "bsp"),
        ("reno", "red", "bulk"),
        ("vegas", "red", "bsp"),
        ("vegas", "fifo", "bulk"),
    )
] + [
    (
        # Serialization 10 ms: ack_delay = 100 ms is an exact multiple,
        # so a delayed-ACK timer can expire at the very instant the
        # next packet is delivered.
        "delack-timer-on-the-arrival-grid",
        dict(
            protocol="reno_delack",
            queue="fifo",
            n_clients=20,
            duration=10.0,
            seed=4,
            bottleneck_rate_bps=0.8e6,
        ),
    ),
]

#: Closed-loop UDP under overload with a deadline short enough that
#: work units are written off (nothing repairs a UDP loss), one cell
#: per workload.
UDP_TIMEOUT_CELLS = [
    dict(workload="rpc", n_clients=60, rpc_think_time=0.01, rpc_request_packets=8,
         rpc_outstanding=3, workload_timeout=0.3),
    dict(workload="bsp", n_clients=30, bsp_compute_time=0.05, bsp_shuffle_packets=60,
         workload_timeout=0.4),
    dict(workload="bulk", n_clients=20, bulk_job_gap=0.2, workload_timeout=0.5),
]


#: (seed, protocol, n_clients) at ``paper_config(duration=40,
#: queue="red")``: the same-instant gateway-arrival reproducers.  In
#: each, a burst head that started serializing at its trigger meets a
#: packet that waited behind its own flow's busy access link, at
#: t=13.149994282487972 (flows 57/17), 26.423541032497056 (26/59) and
#: 35.265433716155385 (9/14); the first moved only ``mean_latency``
#: (it is cell vegas_red/N60 of the ledger's fig2_sweep), the others
#: cov, throughput, drops and timeouts.
TIE_REPRODUCERS = [(1, "vegas", 60), (5, "vegas", 60), (7, "reno", 45)]


def _random_red_matrix(count: int = 24, seed: int = 20260930) -> list:
    rng = random.Random(seed)
    return [
        dict(
            protocol=rng.choice(("reno", "vegas")),
            queue="red",
            workload=rng.choice(("open", "rpc")),
            n_clients=rng.randint(40, 64),
            seed=rng.randint(1, 10_000),
            duration=20.0,
        )
        for _ in range(count)
    ]


def _cell_config(overrides: dict) -> ScenarioConfig:
    return paper_config(
        obs_trace=ALL_TRACE,
        forensics=True,
        **overrides,
    )


def canonical_obs(result) -> dict:
    """Order-preserving, identity-free view of the obs bundle.

    ``ObsBundle`` holds probe objects without ``__eq__`` and series
    rows; this flattens everything to comparable values.  The scalar
    snapshot round-trips through JSON so NaN values compare equal (json
    serializes them to the same token).
    """
    obs = result.obs
    flows = {
        i: {
            "cwnd": probe.cwnd.rows,
            "rtt": probe.rtt.rows,
            "states": probe.states.rows,
        }
        for i, probe in obs.flows.items()
    }
    queue = None
    if obs.queue is not None:
        queue = {
            "occupancy": obs.queue.occupancy.rows,
            "drops": obs.queue.drops.rows,
        }
    return {
        "flows": flows,
        "queue": queue,
        "snapshot": json.dumps(obs.snapshot(), sort_keys=True),
    }


def canonical_forensics(result) -> str:
    """The full forensics report as a canonical JSON string.

    ``as_dict`` output contains NaN floats, which are unequal to
    themselves under dict comparison; JSON canonicalization makes two
    identical reports compare equal.
    """
    return json.dumps(result.forensics.as_dict(), sort_keys=True)


@pytest.mark.parametrize(
    "overrides",
    [cell for _, cell in MATRIX + WIDENED_MATRIX],
    ids=[label for label, _ in MATRIX + WIDENED_MATRIX],
)
def test_batch_matches_object_everywhere(overrides):
    """object vs the default: identical metrics, obs, forensics -- from
    the batch engine inside its envelope, the object engine for UDP."""
    config = _cell_config(overrides)
    reference = run_scenario(config.with_(engine="object"))
    if config.protocol == "udp":
        run = _default_run_outside_the_envelope(config)
    else:
        run = run_scenario(config.with_(engine="batch"))
        # The fusion claim itself: same physics from fewer events.
        assert run.events_executed < reference.events_executed
    assert ScenarioMetrics.from_result(run) == ScenarioMetrics.from_result(reference)
    assert canonical_obs(run) == canonical_obs(reference)
    assert canonical_forensics(run) == canonical_forensics(reference)
    for counts in ("per_flow_bin_counts", "offered_bin_counts"):
        assert getattr(run, counts).tobytes() == getattr(reference, counts).tobytes()


def _default_run_outside_the_envelope(config: ScenarioConfig):
    """A UDP cell: it resolves to the object engine, a forced batch run
    is refused by the envelope's protocol row, and the default run is
    the object engine's (returned, for the caller to compare)."""
    assert config.resolved_engine() == "object"
    with pytest.raises(ValueError, match="only; got protocol 'udp'"):
        run_scenario(config.with_(engine="batch"))
    run = run_scenario(config)
    assert run.engine == "object"
    return run


@pytest.mark.parametrize(
    "overrides", UDP_TIMEOUT_CELLS, ids=lambda cell: f"udp-{cell['workload']}"
)
def test_closed_loop_udp_unit_timeouts_match_object(overrides):
    config = _cell_config(dict(protocol="udp", duration=8.0, seed=2, **overrides))
    reference = run_scenario(config.with_(engine="object"))
    run = _default_run_outside_the_envelope(config)
    assert reference.app.units_failed > 0  # the deadline did fire
    assert run.app == reference.app
    assert ScenarioMetrics.from_result(run) == ScenarioMetrics.from_result(reference)
    assert canonical_obs(run) == canonical_obs(reference)
    assert canonical_forensics(run) == canonical_forensics(reference)


def test_udp_burst_beyond_the_access_queue_is_guarded():
    """No window bounds a UDP flow: a job larger than the access queue
    is dropped from there, which the fused access hop cannot do.  The
    batch engine used to give such a run up part-way; since UDP left
    its envelope the cell never reaches it."""
    config = paper_config(
        protocol="udp", workload="bulk", bulk_job_packets=1200, n_clients=3, duration=3.0
    )
    result = _default_run_outside_the_envelope(config)
    assert ScenarioMetrics.from_result(result) == ScenarioMetrics.from_result(
        run_scenario(config.with_(engine="object"))
    )


def _assert_same_metrics(config: ScenarioConfig) -> None:
    reference = ScenarioMetrics.from_result(run_scenario(config.with_(engine="object")))
    run = ScenarioMetrics.from_result(run_scenario(config.with_(engine="batch")))
    assert run == reference


@pytest.mark.parametrize(
    "seed,protocol,n_clients",
    TIE_REPRODUCERS,
    ids=[f"seed{s}-{p}-N{n}" for s, p, n in TIE_REPRODUCERS],
)
def test_same_instant_gateway_arrivals_keep_object_order(seed, protocol, n_clients):
    _assert_same_metrics(
        paper_config(
            duration=40, queue="red", seed=seed, protocol=protocol, n_clients=n_clients
        )
    )


@pytest.mark.parametrize(
    "overrides",
    _random_red_matrix(),
    ids=lambda cell: "{protocol}-{workload}-N{n_clients}-seed{seed}".format(**cell),
)
def test_random_red_matrix_matches_object(overrides):
    _assert_same_metrics(paper_config(**overrides))


def test_engine_knob_is_digest_excluded():
    """Engine choice must not invalidate cached metrics."""
    config = paper_config(n_clients=4, duration=2.0, seed=5)
    assert (
        config.with_(engine="batch").config_digest()
        == config.with_(engine="object").config_digest()
    )


def test_unknown_engine_rejected():
    with pytest.raises(ValueError, match="unknown engine"):
        paper_config(engine="turbo").validate()


@pytest.mark.parametrize(
    "overrides,match",
    [
        (dict(protocol="newreno"), "reno/vegas"),
        (dict(protocol="tahoe"), "reno/vegas"),
        (dict(traffic="pareto_onoff"), "poisson"),
        (dict(pacing=True), "pacing"),
        (dict(backend="fluid", queue="red"), "packet backend"),
        (dict(client_rate_bps=1e5), "access links"),
        # Delayed-ACK timer == bottleneck propagation delay: a timer
        # and the delivery that would pre-empt it are pushed at one
        # instant, by handlers the two engines order differently.
        (dict(protocol="reno_delack", ack_delay=0.2), "delayed-ACK timer"),
        (dict(advertised_window=1000), "access queue"),
        # Bottleneck serialization time == access propagation delay:
        # the object engine's same-time tie-break becomes ambiguous.
        (dict(packet_size=1000, bottleneck_rate_bps=8e6, client_delay=0.001), "tie"),
        (dict(min_rto=0.001), "min_rto"),
        # Access serialization time == access propagation delay: so is
        # which of two simultaneous gateway arrivals started first.
        (dict(client_delay=0.0008), "access serialization time"),
    ],
)
def test_batch_envelope_rejections(overrides, match):
    """Outside the fusion envelope the config refuses loudly."""
    with pytest.raises(ValueError, match=match):
        paper_config(engine="batch", **overrides).validate()


def test_batch_accepts_the_paper_grid():
    """The paper's own TCP sweep cells all validate under the batch
    engine; its UDP cells resolve to the object engine, and a forced
    batch engine refuses them by protocol."""
    for protocol in ("reno", "vegas", "reno_delack", "udp"):
        for queue in ("fifo", "red"):
            for n_clients in (10, 100, 500):
                config = paper_config(protocol=protocol, queue=queue, n_clients=n_clients)
                if protocol != "udp":
                    config.with_(engine="batch").validate()
                    continue
                assert config.resolved_engine() == "object"
                with pytest.raises(ValueError, match="only; got protocol 'udp'"):
                    config.with_(engine="batch").validate()
