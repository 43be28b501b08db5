#!/usr/bin/env python3
"""Randomized engine cross-differential: object vs batch, in-envelope.

The fixed matrices in ``tests/test_batch_differential.py`` pin the batch
engine on cells chosen by hand; this script looks for cells nobody
chose.  It runs a seeded grid of paper-scale cells over the whole batch
envelope -- seeds x {reno, vegas, reno_delack} x {fifo, red} x
clients x {open, rpc, bsp, bulk}, 384 cells by default -- once with
``engine="object"`` and once with ``engine="batch"`` and compares the
full :class:`ScenarioMetrics` of each pair.  (Its reno/vegas x open/rpc
third is the grid that found the same-instant gateway-arrival bug of
DESIGN.md section 15: 3 of those 128 cells differed.)

``--set FIELD=VALUE`` moves every cell off the paper's parameters: a
slice for putting an envelope row to the question (lift the row, run
the slice that violates it, count the differing cells -- how DESIGN.md
section 15 decided ``packet_size >= 40`` and
``client_rate_bps >= bottleneck_rate_bps``).

A forced ``engine="batch"`` propagates a ``BatchTieError`` instead of
falling back, so a cell the tie guard gives up on shows here as a
failed batch cell, not as a silent pass.

Exit status 1 if any pair differs; ``--out`` receives the differing
cells (config overrides, both records' differing fields) as JSON, for
CI to upload.

    PYTHONPATH=src python benchmarks/engine_xdiff.py -j2 --out xdiff.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List

from repro.experiments.config import BATCH_ENVELOPE, paper_config
from repro.experiments.results import ScenarioMetrics
from repro.experiments.sweep import run_many


def grid(
    seeds: int, clients: List[int], duration: float, overrides: Dict[str, Any]
) -> List[Dict[str, Any]]:
    return [
        dict(
            seed=seed,
            protocol=protocol,
            queue=queue,
            n_clients=n,
            workload=workload,
            duration=duration,
            **overrides,
        )
        for seed in range(1, seeds + 1)
        for protocol in BATCH_ENVELOPE["protocols"]
        for queue in ("fifo", "red")
        for n in clients
        for workload in BATCH_ENVELOPE["workloads"]
    ]


def differing_fields(a: ScenarioMetrics, b: ScenarioMetrics) -> Dict[str, Any]:
    theirs = b.as_dict()
    return {
        name: [value, theirs[name]]
        for name, value in a.as_dict().items()
        if name not in ScenarioMetrics._WALL_CLOCK_FIELDS
        and value != theirs[name]
        and not (value != value and theirs[name] != theirs[name])  # NaN == NaN
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=8, help="seeds 1..N (default 8)")
    parser.add_argument("--clients", default="45,60", help="comma list (default 45,60)")
    parser.add_argument("--duration", type=float, default=40.0, help="simulated s per cell")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="FIELD=VALUE",
        help="override a ScenarioConfig field on every cell (repeatable): a "
        "slice of the grid off the paper's parameters, e.g. "
        "--set client_rate_bps=1e5 or --set packet_size=32 --set mean_gap=0.003",
    )
    parser.add_argument("--jobs", "-j", type=int, default=1, help="worker processes")
    parser.add_argument("--out", help="write the differing cells here as JSON")
    args = parser.parse_args(argv)

    overrides = {}
    for item in args.set:
        name, value = item.split("=", 1)
        try:
            overrides[name] = json.loads(value)  # numbers, true/false
        except ValueError:
            overrides[name] = value  # a bare word: queue=ared
    cells = grid(
        args.seeds, [int(n) for n in args.clients.split(",")], args.duration, overrides
    )
    configs = [paper_config(**cell) for cell in cells]
    results = run_many(
        [c.with_(engine=engine) for c in configs for engine in ("object", "batch")],
        processes=args.jobs,
        retries=0,
    )
    differing = []
    for cell, reference, batch in zip(cells, results[0::2], results[1::2]):
        if reference != batch:
            differing.append(dict(cell=cell, fields=differing_fields(reference, batch)))
            print(f"DIFF {cell}: {sorted(differing[-1]['fields'])}")
    print(f"{len(cells)} cells, {len(differing)} differing")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(differing, handle, indent=1)
            handle.write("\n")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
