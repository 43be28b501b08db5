"""Hybrid backend scaling: wall time vs ambient N, and the speedup gate.

The hybrid backend's acceptance gate.  A hybrid cell simulates K
packet-exact foreground flows against the mean-field fluid background,
so its wall time tracks K (plus a fixed fluid-integration cost) and is
flat in the ambient ``n_clients``.  Like the fluid bench, the common
currency is the *per-flow-second rate* -- ``n_clients * duration /
wall`` -- how many flow-seconds of scenario each backend simulates per
wall second.  The hybrid rate grows linearly in N at fixed K because
the ambient flows ride in the solver for free.

Two assertions:

* a hybrid cell at ``N = 100_000`` with ``K = 10`` foreground flows
  (Reno/FIFO, full 60 s scenario) completes within
  ``REPRO_BENCH_HYBRID_WALL_CAP`` seconds (default 30; in practice
  ~1 s) -- packet-grade foreground detail at fluid-grade ambient scale;
* the hybrid per-flow-second rate at the gate cell is at least
  ``REPRO_BENCH_HYBRID_SPEEDUP`` (default 50) times the pure packet
  engine's, measured on a small packet cell (the packet rate is
  N-independent because its cost is linear in N, so a cheap cell is a
  fair proxy).  The observed ratio is ~10^3-10^4 at N=10^5; the 50x
  floor leaves room for very noisy CI boxes.

Environment knobs:

* ``REPRO_BENCH_HYBRID_CLIENTS``    -- comma list of ambient client
  counts (default ``1000,10000,100000,1000000``).
* ``REPRO_BENCH_HYBRID_GATE_N``     -- the gated hybrid cell's N
  (default 100000).
* ``REPRO_BENCH_HYBRID_FOREGROUND`` -- K, packet-exact foreground flows
  per hybrid cell (default 10).
* ``REPRO_BENCH_HYBRID_DURATION``   -- simulated seconds per cell
  (default 60).
* ``REPRO_BENCH_HYBRID_REPS``       -- runs per cell; fastest kept
  (default 2).
* ``REPRO_BENCH_HYBRID_WALL_CAP``   -- wall-seconds cap for the gated
  hybrid cell (default 30; 0 disables).
* ``REPRO_BENCH_HYBRID_SPEEDUP``    -- minimum hybrid/packet
  per-flow-second rate ratio (default 50; 0 disables).
* ``REPRO_BENCH_HYBRID_JSON``       -- write the rows as JSON here.
"""

from __future__ import annotations

import json
import os
import time
from typing import List

from repro.analysis.tables import format_table
from repro.experiments.config import paper_config
from repro.experiments.scenario import run_scenario

from conftest import bench_seed, emit

#: The small packet reference cell: its per-flow-second rate is the
#: denominator of the speedup gate.
PACKET_REF_CLIENTS = 50


def hybrid_clients() -> List[int]:
    raw = os.environ.get(
        "REPRO_BENCH_HYBRID_CLIENTS", "1000,10000,100000,1000000"
    )
    return [int(part) for part in raw.split(",") if part]


def hybrid_gate_n() -> int:
    return int(os.environ.get("REPRO_BENCH_HYBRID_GATE_N", "100000"))


def hybrid_foreground() -> int:
    return int(os.environ.get("REPRO_BENCH_HYBRID_FOREGROUND", "10"))


def hybrid_duration() -> float:
    return float(os.environ.get("REPRO_BENCH_HYBRID_DURATION", "60"))


def hybrid_reps() -> int:
    return int(os.environ.get("REPRO_BENCH_HYBRID_REPS", "2"))


def hybrid_wall_cap() -> float:
    return float(os.environ.get("REPRO_BENCH_HYBRID_WALL_CAP", "30"))


def hybrid_speedup_floor() -> float:
    return float(os.environ.get("REPRO_BENCH_HYBRID_SPEEDUP", "50"))


def _run_cell(backend: str, n_clients: int) -> dict:
    """One cell: best-of-``reps`` wall time around run_scenario."""
    config = paper_config(
        protocol="reno",
        queue="fifo",
        backend=backend,
        n_clients=n_clients,
        duration=hybrid_duration(),
        seed=bench_seed(),
    )
    if backend == "hybrid":
        config = config.with_(hybrid_foreground_flows=hybrid_foreground())
    best_wall = float("inf")
    cov = float("nan")
    for _ in range(max(hybrid_reps(), 1)):
        t0 = time.perf_counter()
        result = run_scenario(config)
        best_wall = min(best_wall, time.perf_counter() - t0)
        cov = result.cov
    flow_seconds = n_clients * hybrid_duration()
    return {
        "backend": backend,
        "n_clients": n_clients,
        "foreground": (
            hybrid_foreground() if backend == "hybrid" else n_clients
        ),
        "wall": best_wall,
        "cov": float(cov),
        "flow_seconds_per_wall_sec": (
            flow_seconds / best_wall if best_wall > 0 else float("inf")
        ),
    }


def run_hybrid_bench() -> List[dict]:
    """The packet reference cell plus the hybrid ambient-N ladder."""
    rows = [_run_cell("packet", PACKET_REF_CLIENTS)]
    for n_clients in sorted(set(hybrid_clients()) | {hybrid_gate_n()}):
        rows.append(_run_cell("hybrid", n_clients))
    return rows


def hybrid_table(rows: List[dict]) -> str:
    table_rows = [
        [
            row["backend"],
            row["n_clients"],
            row["foreground"],
            round(row["wall"], 3),
            round(row["cov"], 4),
            round(row["flow_seconds_per_wall_sec"]),
        ]
        for row in rows
    ]
    return format_table(
        ["backend", "clients", "fg flows", "wall s", "cov", "flow-sec/s"],
        table_rows,
        title=(
            f"Hybrid backend scaling, K={hybrid_foreground()} foreground, "
            f"{hybrid_duration():g}s simulated per cell, best of "
            f"{hybrid_reps()} (flow-seconds per wall second, higher is "
            f"better)"
        ),
    )


def test_hybrid_scaling_speedup():
    """The ladder, the table, the wall cap, and the >=50x rate gate."""
    rows = run_hybrid_bench()
    emit(hybrid_table(rows))
    json_path = os.environ.get("REPRO_BENCH_HYBRID_JSON")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2)
        emit(f"wrote {json_path}")

    by_cell = {(row["backend"], row["n_clients"]): row for row in rows}
    packet = by_cell[("packet", PACKET_REF_CLIENTS)]
    gate = by_cell[("hybrid", hybrid_gate_n())]

    cap = hybrid_wall_cap()
    if cap > 0:
        assert gate["wall"] <= cap, (
            f"hybrid cell at N={hybrid_gate_n()} took {gate['wall']:.2f}s, "
            f"over the {cap:g}s cap"
        )

    floor = hybrid_speedup_floor()
    if floor > 0:
        ratio = (
            gate["flow_seconds_per_wall_sec"]
            / packet["flow_seconds_per_wall_sec"]
        )
        assert ratio >= floor, (
            f"hybrid per-flow-second rate at N={hybrid_gate_n()} is only "
            f"{ratio:.1f}x the packet engine's, below the {floor:g}x floor"
        )
        emit(
            f"hybrid/packet per-flow-second rate ratio at "
            f"N={hybrid_gate_n()}: {ratio:.0f}x (floor {floor:g}x)"
        )

    # Flat-in-N sanity: at fixed K the foreground event count and the
    # fluid step count are both independent of the ambient N, so the
    # biggest hybrid cell must not cost much more wall time than the
    # smallest.
    hybrid_rows = [row for row in rows if row["backend"] == "hybrid"]
    if len(hybrid_rows) >= 2:
        walls = [row["wall"] for row in hybrid_rows]
        assert max(walls) <= 10.0 * min(walls) + 1.0, (
            f"hybrid wall time is not flat in ambient N: {walls}"
        )


if __name__ == "__main__":  # pragma: no cover - manual invocation
    emit(hybrid_table(run_hybrid_bench()))
