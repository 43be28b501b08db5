"""Differential harness: the batch engine against the object engine.

The batch engine (``engine="batch"``, see ``repro.engine``) re-implements
the scenario hot path as struct-of-arrays state plus fused transport
events.  Its correctness claim is not "close" but *bit-identical*: on
every supported cell it must produce the same :class:`ScenarioMetrics`,
the same per-flow observability series, the same registry counters and
the same forensics report as the per-flow object engine.

The matrix below covers Reno/Vegas x droptail/RED x open-loop/RPC plus
stress cells chosen to exercise the regimes where an unfaithful fusion
would diverge: deep overload (same-time event ties at the bottleneck
port), tiny buffers (timeout/fast-retransmit storms) and RED's averaged
occupancy.  The object engine is the oracle.
"""

from __future__ import annotations

import json

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


def _cell_config(overrides: dict) -> ScenarioConfig:
    return paper_config(
        obs_trace=ALL_TRACE,
        forensics=True,
        **overrides,
    )


def canonical_obs(result) -> dict:
    """Order-preserving, identity-free view of the obs bundle.

    ``ObsBundle`` holds registry metric objects without ``__eq__`` and
    series rows; this flattens everything to comparable values.  The
    registry snapshot round-trips through JSON so NaN gauge values
    compare equal (json serializes them to the same token).
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
        "registry": json.dumps(obs.registry.snapshot(), sort_keys=True),
    }


def canonical_forensics(result) -> str:
    """The full forensics report as a canonical JSON string.

    ``as_dict`` output contains NaN floats, which are unequal to
    themselves under dict comparison; JSON canonicalization makes two
    identical reports compare equal.
    """
    return json.dumps(result.forensics.as_dict(), sort_keys=True)


@pytest.mark.parametrize(
    "overrides", [cell for _, cell in MATRIX], ids=[label for label, _ in MATRIX]
)
def test_batch_matches_object_everywhere(overrides):
    """object vs batch: identical metrics, obs, forensics."""
    config = _cell_config(overrides)
    reference = run_scenario(config.with_(engine="object"))
    run = run_scenario(config.with_(engine="batch"))
    assert ScenarioMetrics.from_result(run) == ScenarioMetrics.from_result(reference)
    assert canonical_obs(run) == canonical_obs(reference)
    assert canonical_forensics(run) == canonical_forensics(reference)
    # The fusion claim itself: same physics from fewer events.
    assert run.events_executed < reference.events_executed


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
        (dict(protocol="udp"), "reno/vegas"),
        (dict(protocol="tahoe"), "reno/vegas"),
        (dict(traffic="pareto_onoff"), "poisson"),
        (dict(pacing=True), "pacing"),
        (dict(backend="fluid", queue="red"), "packet backend"),
        (dict(client_rate_bps=1e5), "access links"),
        (dict(packet_size=39), "40"),
        (dict(advertised_window=1000), "access queue"),
        # Bottleneck serialization time == access propagation delay:
        # the object engine's same-time tie-break becomes ambiguous.
        (dict(packet_size=1000, bottleneck_rate_bps=8e6, client_delay=0.001), "tie"),
        (dict(min_rto=0.001), "min_rto"),
    ],
)
def test_batch_envelope_rejections(overrides, match):
    """Outside the fusion envelope the config refuses loudly."""
    with pytest.raises(ValueError, match=match):
        paper_config(engine="batch", **overrides).validate()


def test_batch_accepts_the_paper_grid():
    """The paper's own sweep cells all validate under the batch engine."""
    for protocol in ("reno", "vegas"):
        for queue in ("fifo", "red"):
            for n_clients in (10, 100, 500):
                paper_config(
                    engine="batch",
                    protocol=protocol,
                    queue=queue,
                    n_clients=n_clients,
                ).validate()
