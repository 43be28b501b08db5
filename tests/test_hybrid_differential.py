"""Hybrid-vs-packet cross-validation gate.

Runs {reno, vegas} x {droptail, RED} at N=50 through the pure packet
engine and through the hybrid backend with K=10 foreground flows, and
checks the hybrid foreground against the *same ten flows* of the packet
run within documented tolerance bands.  The comparison is meaningful
flow by flow because both backends derive client ``i``'s offered
traffic from the same seeded RNG stream (``client-i/poisson``): the two
runs differ only in how the other 40 flows are modeled.

This is the differential suite the CI ``fluid-xval`` job runs for its
hybrid cells; set ``REPRO_HYBRID_XVAL_REPORT=/path/report.json`` to
also write a machine-readable tolerance report (uploaded as a CI
artifact).

Both backends are deterministic at a fixed seed, so the bands measure
real model error, not run-to-run noise.  The bands (derivation and
validity envelope in DESIGN.md section 16; empirically calibrated over
8 cells = 4 protocol/queue combos x 2 seeds):

* foreground aggregate throughput: hybrid/packet ratio in
  ``[0.75, 1.35]`` (observed 0.94-1.25; the fluid background is
  slightly smoother than 40 real flows, so the foreground usually
  clears a little more);
* per-foreground-flow throughput: each flow's ratio in ``[0.3, 3.0]``
  -- individual TCP flow outcomes are dominated by which packets the
  loss realization happens to hit (observed 0.36-2.43, widest under
  Vegas/droptail), so the per-flow band is wide while the aggregate
  band above stays tight;
* foreground rate c.o.v.: hybrid in
  ``[0.3 * packet - 0.02, packet + 0.12]`` (the same asymmetric band
  as the pure-fluid gate, for the same reason: the deterministic
  background legitimately lacks finite-N stochastic synchronization);
* foreground loss percentage: absolute error <= 3.5 points (observed
  <= 2.8);
* mean gateway queue: absolute error <= 20 packets -- wider than the
  pure-fluid band because the hybrid reports the fluid trajectory's
  mean while the packet reference at N=50 fluctuates around a lower
  operating point (fluid droptail holds the buffer near full; observed
  error <= 16.2).
"""

import json
import os

import numpy as np
import pytest

from repro.core.cov import coefficient_of_variation
from repro.experiments.config import paper_config
from repro.experiments.scenario import run_scenario

DURATION = 60.0
WARMUP = 10.0
N_CLIENTS = 50
FOREGROUND = 10
CELLS = (
    ("reno", "fifo"),
    ("reno", "red"),
    ("vegas", "fifo"),
    ("vegas", "red"),
)

# Tolerance bands -- keep in sync with DESIGN.md section 16.
AGG_THROUGHPUT_RATIO = (0.75, 1.35)
PER_FLOW_RATIO = (0.3, 3.0)
COV_LOW_FACTOR = 0.3
COV_LOW_SLACK = 0.02
COV_HIGH_SLACK = 0.12
LOSS_ABS_TOL = 3.5
QUEUE_ABS_TOL = 20.0


def _cell_config(protocol, queue, backend):
    config = paper_config(
        protocol=protocol,
        queue=queue,
        n_clients=N_CLIENTS,
        backend=backend,
        duration=DURATION,
        warmup=WARMUP,
    )
    if backend == "hybrid":
        return config.with_(hybrid_foreground_flows=FOREGROUND)
    return config


def _foreground_cov(result):
    """C.o.v. of the packet run's flows 0..K-1 at the gateway."""
    return coefficient_of_variation(
        result.per_flow_bin_counts[:FOREGROUND].sum(axis=0)
    )


@pytest.fixture(scope="module")
def comparisons():
    """Run every cell through both backends once per session."""
    rows = []
    for protocol, queue in CELLS:
        packet = run_scenario(_cell_config(protocol, queue, "packet"))
        hybrid = run_scenario(_cell_config(protocol, queue, "hybrid"))
        rows.append(
            {
                "protocol": protocol,
                "queue": queue,
                "n_clients": N_CLIENTS,
                "foreground": FOREGROUND,
                "packet": {
                    "foreground_cov": float(_foreground_cov(packet)),
                    "per_flow_delivered": [
                        int(f.delivered_unique)
                        for f in packet.per_flow[:FOREGROUND]
                    ],
                    "loss_percent": float(packet.loss_percent),
                    "mean_queue_length": float(packet.mean_queue_length),
                },
                "hybrid": {
                    "foreground_cov": float(hybrid.cov),
                    "per_flow_delivered": [
                        int(f.delivered_unique) for f in hybrid.per_flow
                    ],
                    "loss_percent": float(hybrid.loss_percent),
                    "mean_queue_length": float(hybrid.mean_queue_length),
                },
            }
        )
    _maybe_write_report(rows)
    return {(r["protocol"], r["queue"]): r for r in rows}


def _band_checks(row):
    """The gate checks for one cell, as (name, ok, detail)."""
    packet, hybrid = row["packet"], row["hybrid"]
    pk_flows = np.asarray(packet["per_flow_delivered"], dtype=float)
    hy_flows = np.asarray(hybrid["per_flow_delivered"], dtype=float)
    agg_ratio = hy_flows.sum() / max(pk_flows.sum(), 1.0)
    flow_ratios = hy_flows / np.maximum(pk_flows, 1.0)
    cov_lo = COV_LOW_FACTOR * packet["foreground_cov"] - COV_LOW_SLACK
    cov_hi = packet["foreground_cov"] + COV_HIGH_SLACK
    loss_abs = abs(hybrid["loss_percent"] - packet["loss_percent"])
    q_abs = abs(hybrid["mean_queue_length"] - packet["mean_queue_length"])
    return [
        (
            "agg_throughput",
            bool(
                AGG_THROUGHPUT_RATIO[0] <= agg_ratio <= AGG_THROUGHPUT_RATIO[1]
            ),
            f"foreground aggregate ratio {agg_ratio:.3f} outside "
            f"{AGG_THROUGHPUT_RATIO}; hybrid {hy_flows.sum():.0f} vs "
            f"packet {pk_flows.sum():.0f} packets",
        ),
        (
            "per_flow_throughput",
            bool(
                (flow_ratios >= PER_FLOW_RATIO[0]).all()
                and (flow_ratios <= PER_FLOW_RATIO[1]).all()
            ),
            f"per-flow ratios {np.round(flow_ratios, 2).tolist()} not all "
            f"within {PER_FLOW_RATIO}",
        ),
        (
            "foreground_cov",
            bool(cov_lo <= hybrid["foreground_cov"] <= cov_hi),
            f"hybrid {hybrid['foreground_cov']:.3f} outside "
            f"[{cov_lo:.3f}, {cov_hi:.3f}] "
            f"(packet foreground {packet['foreground_cov']:.3f})",
        ),
        (
            "loss_percent",
            bool(loss_abs <= LOSS_ABS_TOL),
            f"absolute error {loss_abs:.2f} points (tol {LOSS_ABS_TOL}); "
            f"hybrid {hybrid['loss_percent']:.2f} vs "
            f"packet {packet['loss_percent']:.2f}",
        ),
        (
            "mean_queue",
            bool(q_abs <= QUEUE_ABS_TOL),
            f"absolute error {q_abs:.2f} pkts (tol {QUEUE_ABS_TOL}); "
            f"hybrid {hybrid['mean_queue_length']:.1f} vs "
            f"packet {packet['mean_queue_length']:.1f}",
        ),
    ]


def _maybe_write_report(rows):
    path = os.environ.get("REPRO_HYBRID_XVAL_REPORT", "")
    if not path:
        return
    report = {
        "bands": {
            "agg_throughput_ratio": list(AGG_THROUGHPUT_RATIO),
            "per_flow_ratio": list(PER_FLOW_RATIO),
            "cov_low_factor": COV_LOW_FACTOR,
            "cov_low_slack": COV_LOW_SLACK,
            "cov_high_slack": COV_HIGH_SLACK,
            "loss_abs_tol": LOSS_ABS_TOL,
            "queue_abs_tol": QUEUE_ABS_TOL,
        },
        "duration": DURATION,
        "warmup": WARMUP,
        "n_clients": N_CLIENTS,
        "foreground": FOREGROUND,
        "cells": [],
    }
    for row in rows:
        checks = _band_checks(row)
        report["cells"].append(
            {
                **row,
                "checks": {
                    name: {"ok": ok, "detail": detail}
                    for name, ok, detail in checks
                },
                "ok": all(ok for _, ok, _ in checks),
            }
        )
    report["ok"] = all(cell["ok"] for cell in report["cells"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)


CHECK_INDEX = {
    "agg_throughput": 0,
    "per_flow_throughput": 1,
    "foreground_cov": 2,
    "loss_percent": 3,
    "mean_queue": 4,
}


@pytest.mark.parametrize("protocol,queue", CELLS)
@pytest.mark.parametrize("check", sorted(CHECK_INDEX))
def test_hybrid_within_band(comparisons, protocol, queue, check):
    name, ok, detail = _band_checks(comparisons[(protocol, queue)])[
        CHECK_INDEX[check]
    ]
    assert ok, f"{protocol}/{queue}@{N_CLIENTS} [{name}]: {detail}"


def test_hybrid_measures_every_foreground_flow(comparisons):
    """Each hybrid cell reports exactly K per-flow summaries, and every
    foreground flow actually moved traffic (the coupling cannot starve
    a flow outright)."""
    for row in comparisons.values():
        delivered = row["hybrid"]["per_flow_delivered"]
        assert len(delivered) == FOREGROUND
        assert min(delivered) > 0
