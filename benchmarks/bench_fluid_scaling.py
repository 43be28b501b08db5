"""Fluid backend scaling: wall time vs N, and the speedup gate.

The fluid backend's acceptance gate.  The packet engine's wall time
grows linearly in ``n_clients`` (every flow is simulated); the
mean-field solver's state is a window density, so its wall time is flat
in N.  This bench measures both and gates on the *per-flow-second
rate* -- ``n_clients * duration / wall`` -- the natural common currency:
how many flow-seconds of scenario each backend simulates per wall
second.

Two assertions:

* a fluid cell at ``N = 100_000`` (Reno/FIFO, full 60 s scenario)
  completes within ``REPRO_BENCH_FLUID_WALL_CAP`` seconds (default 30;
  in practice well under 1 s) -- "N = 10^5 in seconds, not hours";
* the fluid backend's per-flow-second rate at the gate cell is at
  least ``REPRO_BENCH_FLUID_SPEEDUP`` (default 100) times the packet
  engine's, measured on a small packet cell (the packet rate is
  N-independent precisely because its cost is linear in N, so a cheap
  cell is a fair proxy).  The observed ratio is ~10^4-10^5; the 100x
  floor leaves room for very noisy CI boxes.

Environment knobs:

* ``REPRO_BENCH_FLUID_CLIENTS``   -- comma list of fluid client counts
  (default ``1000,10000,100000,1000000``).
* ``REPRO_BENCH_FLUID_GATE_N``    -- the gated fluid cell's N
  (default 100000).
* ``REPRO_BENCH_FLUID_DURATION``  -- simulated seconds per cell
  (default 60).
* ``REPRO_BENCH_FLUID_REPS``      -- runs per cell; fastest kept
  (default 2).
* ``REPRO_BENCH_FLUID_WALL_CAP``  -- wall-seconds cap for the gated
  fluid cell (default 30; 0 disables).
* ``REPRO_BENCH_FLUID_SPEEDUP``   -- minimum fluid/packet
  per-flow-second rate ratio (default 100; 0 disables).
* ``REPRO_BENCH_FLUID_JSON``      -- write the rows as JSON here.
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


def fluid_clients() -> List[int]:
    raw = os.environ.get(
        "REPRO_BENCH_FLUID_CLIENTS", "1000,10000,100000,1000000"
    )
    return [int(part) for part in raw.split(",") if part]


def fluid_gate_n() -> int:
    return int(os.environ.get("REPRO_BENCH_FLUID_GATE_N", "100000"))


def fluid_duration() -> float:
    return float(os.environ.get("REPRO_BENCH_FLUID_DURATION", "60"))


def fluid_reps() -> int:
    return int(os.environ.get("REPRO_BENCH_FLUID_REPS", "2"))


def fluid_wall_cap() -> float:
    return float(os.environ.get("REPRO_BENCH_FLUID_WALL_CAP", "30"))


def fluid_speedup_floor() -> float:
    return float(os.environ.get("REPRO_BENCH_FLUID_SPEEDUP", "100"))


def _run_cell(backend: str, n_clients: int) -> dict:
    """One cell: best-of-``reps`` wall time around run_scenario."""
    config = paper_config(
        protocol="reno",
        queue="fifo",
        backend=backend,
        n_clients=n_clients,
        duration=fluid_duration(),
        seed=bench_seed(),
    )
    best_wall = float("inf")
    cov = float("nan")
    for _ in range(max(fluid_reps(), 1)):
        t0 = time.perf_counter()
        result = run_scenario(config)
        best_wall = min(best_wall, time.perf_counter() - t0)
        cov = result.cov
    flow_seconds = n_clients * fluid_duration()
    return {
        "backend": backend,
        "n_clients": n_clients,
        "wall": best_wall,
        "cov": float(cov),
        "flow_seconds_per_wall_sec": (
            flow_seconds / best_wall if best_wall > 0 else float("inf")
        ),
    }


def run_fluid_bench() -> List[dict]:
    """The packet reference cell plus the fluid N-ladder."""
    rows = [_run_cell("packet", PACKET_REF_CLIENTS)]
    for n_clients in sorted(set(fluid_clients()) | {fluid_gate_n()}):
        rows.append(_run_cell("fluid", n_clients))
    return rows


def fluid_table(rows: List[dict]) -> str:
    table_rows = [
        [
            row["backend"],
            row["n_clients"],
            round(row["wall"], 3),
            round(row["cov"], 4),
            round(row["flow_seconds_per_wall_sec"]),
        ]
        for row in rows
    ]
    return format_table(
        ["backend", "clients", "wall s", "cov", "flow-sec/s"],
        table_rows,
        title=(
            f"Fluid backend scaling, {fluid_duration():g}s simulated per "
            f"cell, best of {fluid_reps()} (flow-seconds per wall second, "
            f"higher is better)"
        ),
    )


def test_fluid_scaling_speedup():
    """The ladder, the table, the wall cap, and the >=100x rate gate."""
    rows = run_fluid_bench()
    emit(fluid_table(rows))
    json_path = os.environ.get("REPRO_BENCH_FLUID_JSON")
    if json_path:
        with open(json_path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=2)
        emit(f"wrote {json_path}")

    by_cell = {(row["backend"], row["n_clients"]): row for row in rows}
    packet = by_cell[("packet", PACKET_REF_CLIENTS)]
    gate = by_cell[("fluid", fluid_gate_n())]

    cap = fluid_wall_cap()
    if cap > 0:
        assert gate["wall"] <= cap, (
            f"fluid cell at N={fluid_gate_n()} took {gate['wall']:.2f}s, "
            f"over the {cap:g}s cap"
        )

    floor = fluid_speedup_floor()
    if floor > 0:
        ratio = (
            gate["flow_seconds_per_wall_sec"]
            / packet["flow_seconds_per_wall_sec"]
        )
        assert ratio >= floor, (
            f"fluid per-flow-second rate at N={fluid_gate_n()} is only "
            f"{ratio:.1f}x the packet engine's, below the {floor:g}x floor"
        )
        emit(
            f"fluid/packet per-flow-second rate ratio at "
            f"N={fluid_gate_n()}: {ratio:.0f}x (floor {floor:g}x)"
        )

    # Flat-in-N sanity: the biggest fluid cell must not cost much more
    # wall time than the smallest (the solver never sees N except as a
    # scalar multiplier).
    fluid_rows = [row for row in rows if row["backend"] == "fluid"]
    if len(fluid_rows) >= 2:
        walls = [row["wall"] for row in fluid_rows]
        assert max(walls) <= 10.0 * min(walls) + 1.0, (
            f"fluid wall time is not flat in N: {walls}"
        )


if __name__ == "__main__":  # pragma: no cover - manual invocation
    emit(fluid_table(run_fluid_bench()))
