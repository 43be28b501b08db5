"""Packet-vs-fluid cross-validation gate.

Runs the same 12 scenario cells -- {reno, vegas} x {droptail, RED} x
N in {50, 200, 500} -- through both backends and checks the fluid
solver's headline metrics against the packet engine within documented
tolerance bands.  This is the differential suite the CI ``fluid-xval``
job runs; set ``REPRO_XVAL_REPORT=/path/report.json`` to also write a
machine-readable tolerance report (uploaded as a CI artifact).

Both backends are deterministic at a fixed seed, so the bands measure
real model error, not run-to-run noise.  The bands (derivation and
validity envelope in DESIGN.md section 12):

* throughput: relative error <= 18% (the fluid link saturates exactly
  at C while the packet engine leaves a few percent idle during
  synchronized backoff);
* mean queue: absolute error <= 10 packets (of a 50-packet buffer);
* rate c.o.v.: fluid in ``[0.3 * packet - 0.02, packet + 0.12]`` --
  asymmetric because the deterministic mean-field limit legitimately
  loses finite-N stochastic synchronization (low side) yet can
  over-express the undamped limit cycle (high side).
"""

import json
import os

import pytest

from repro.experiments.config import paper_config
from repro.experiments.results import ScenarioMetrics
from repro.experiments.scenario import run_scenario

DURATION = 60.0
WARMUP = 10.0
CLIENT_COUNTS = (50, 200, 500)
PROTOCOL_QUEUES = (
    ("reno", "fifo"),
    ("reno", "red"),
    ("vegas", "fifo"),
    ("vegas", "red"),
)
CELLS = [
    (protocol, queue, n)
    for protocol, queue in PROTOCOL_QUEUES
    for n in CLIENT_COUNTS
]

# Tolerance bands -- keep in sync with DESIGN.md section 12.
THROUGHPUT_REL_TOL = 0.18
QUEUE_ABS_TOL = 10.0
COV_LOW_FACTOR = 0.3
COV_LOW_SLACK = 0.02
COV_HIGH_SLACK = 0.12


def _cell_config(protocol, queue, n_clients, backend):
    return paper_config(
        protocol=protocol,
        queue=queue,
        n_clients=n_clients,
        backend=backend,
        duration=DURATION,
        warmup=WARMUP,
    )


@pytest.fixture(scope="module")
def comparisons():
    """Run all 12 cells through both backends once per session."""
    rows = []
    for protocol, queue, n in CELLS:
        packet = ScenarioMetrics.from_result(
            run_scenario(_cell_config(protocol, queue, n, "packet"))
        )
        fluid = ScenarioMetrics.from_result(
            run_scenario(_cell_config(protocol, queue, n, "fluid"))
        )
        rows.append(
            {
                "protocol": protocol,
                "queue": queue,
                "n_clients": n,
                # float() strips numpy scalar types so the JSON report
                # serializes with the stdlib encoder.
                "packet": {
                    "cov": float(packet.cov),
                    "throughput_pps": float(packet.throughput_pps),
                    "mean_queue_length": float(packet.mean_queue_length),
                    "loss_percent": float(packet.loss_percent),
                },
                "fluid": {
                    "cov": float(fluid.cov),
                    "throughput_pps": float(fluid.throughput_pps),
                    "mean_queue_length": float(fluid.mean_queue_length),
                    "loss_percent": float(fluid.loss_percent),
                },
            }
        )
    _maybe_write_report(rows)
    return {(r["protocol"], r["queue"], r["n_clients"]): r for r in rows}


def _band_checks(row):
    """The three gate checks for one cell, as (name, ok, detail)."""
    packet, fluid = row["packet"], row["fluid"]
    thr_rel = abs(fluid["throughput_pps"] - packet["throughput_pps"]) / packet[
        "throughput_pps"
    ]
    q_abs = abs(fluid["mean_queue_length"] - packet["mean_queue_length"])
    cov_lo = COV_LOW_FACTOR * packet["cov"] - COV_LOW_SLACK
    cov_hi = packet["cov"] + COV_HIGH_SLACK
    return [
        (
            "throughput",
            bool(thr_rel <= THROUGHPUT_REL_TOL),
            f"relative error {thr_rel:.3f} (tol {THROUGHPUT_REL_TOL}); "
            f"fluid {fluid['throughput_pps']:.1f} vs "
            f"packet {packet['throughput_pps']:.1f} pps",
        ),
        (
            "mean_queue",
            bool(q_abs <= QUEUE_ABS_TOL),
            f"absolute error {q_abs:.2f} pkts (tol {QUEUE_ABS_TOL}); "
            f"fluid {fluid['mean_queue_length']:.1f} vs "
            f"packet {packet['mean_queue_length']:.1f}",
        ),
        (
            "cov",
            bool(cov_lo <= fluid["cov"] <= cov_hi),
            f"fluid {fluid['cov']:.3f} outside [{cov_lo:.3f}, {cov_hi:.3f}] "
            f"(packet {packet['cov']:.3f})",
        ),
    ]


def _maybe_write_report(rows):
    path = os.environ.get("REPRO_XVAL_REPORT", "")
    if not path:
        return
    report = {
        "bands": {
            "throughput_rel_tol": THROUGHPUT_REL_TOL,
            "queue_abs_tol": QUEUE_ABS_TOL,
            "cov_low_factor": COV_LOW_FACTOR,
            "cov_low_slack": COV_LOW_SLACK,
            "cov_high_slack": COV_HIGH_SLACK,
        },
        "duration": DURATION,
        "warmup": WARMUP,
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


@pytest.mark.parametrize("protocol,queue,n", CELLS)
def test_throughput_within_band(comparisons, protocol, queue, n):
    name, ok, detail = _band_checks(comparisons[(protocol, queue, n)])[0]
    assert ok, f"{protocol}/{queue}@{n}: {detail}"


@pytest.mark.parametrize("protocol,queue,n", CELLS)
def test_mean_queue_within_band(comparisons, protocol, queue, n):
    name, ok, detail = _band_checks(comparisons[(protocol, queue, n)])[1]
    assert ok, f"{protocol}/{queue}@{n}: {detail}"


@pytest.mark.parametrize("protocol,queue,n", CELLS)
def test_cov_within_band(comparisons, protocol, queue, n):
    name, ok, detail = _band_checks(comparisons[(protocol, queue, n)])[2]
    assert ok, f"{protocol}/{queue}@{n}: {detail}"


def test_fluid_grid_is_orders_of_magnitude_cheaper(comparisons):
    """Sanity on the point of the backend: the whole 12-cell fluid grid
    must not have needed packet-engine-scale work.  (The real speedup
    gate is the flow_s_per_s ratio in CI's ``ledger`` step.)"""
    assert len(comparisons) == len(CELLS)
