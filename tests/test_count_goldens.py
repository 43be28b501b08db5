"""Goldens for the per-bin arrival counts the paper's measure is taken over.

``goldens/counts/counts.json`` holds, for twelve seeded cells, the
SHA-256 of the gateway's ``bin_counts`` bytes and of the
``offered_bin_counts`` bytes, and every field of the ``dependence()``
report built from the per-flow gateway counts.  The cells span both flow engines (and the batch engine's
bulk-replay path), the closed-loop workloads, Pareto traffic over DRR,
the hybrid backend, and a warmup with a bin width that does not divide
the window.  Captured while the gateway counts were binned live by the
arrival monitor's own index arithmetic and the offered and per-flow
counts were binned from kept time lists; see tests/goldens/README.md
before regenerating.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.core.cov import FOLD_SIZE
from repro.experiments.config import paper_config
from repro.experiments.scenario import run_scenario

GOLDEN_PATH = Path(__file__).parent / "goldens" / "counts" / "counts.json"

CELLS = {
    "udp-object-n10": dict(protocol="udp", engine="object", n_clients=10),
    "cbr-reno-object-n10": dict(
        protocol="reno", traffic="cbr", engine="object", n_clients=10
    ),
    "reno-batch-n20": dict(protocol="reno", engine="batch", n_clients=20),
    "vegas-batch-n20": dict(
        protocol="vegas", queue="red", engine="batch", n_clients=20
    ),
    "reno_delack-batch-n20": dict(
        protocol="reno_delack", engine="batch", n_clients=20
    ),
    # Backlogged flows: the batch engine replays deferred arrivals in
    # bulk.
    "reno-batch-backlogged-n60": dict(
        protocol="reno", engine="batch", n_clients=60, mean_gap=0.02
    ),
    "rpc-reno-n12": dict(protocol="reno", workload="rpc", n_clients=12),
    "bsp-reno-n8": dict(protocol="reno", workload="bsp", n_clients=8),
    "bulk-vegas-n6": dict(protocol="vegas", workload="bulk", n_clients=6),
    "pareto-reno-drr-n20": dict(
        protocol="reno", traffic="pareto_onoff", queue="drr", n_clients=20
    ),
    "hybrid-reno-k5-n200": dict(
        protocol="reno", backend="hybrid", n_clients=200, hybrid_foreground_flows=5
    ),
    # 3.7 s of window in 0.07-s bins: 52 whole bins and a remainder.
    "reno-warmup-bin007-n20": dict(
        protocol="reno", n_clients=20, warmup=1.3, bin_width=0.07
    ),
}


def _sha256(array):
    return hashlib.sha256(array.tobytes()).hexdigest()


def _fingerprint(overrides):
    config = paper_config(duration=20.0, seed=3, **overrides)
    result = run_scenario(config)
    report = result.dependence()
    return {
        "bins": int(result.bin_counts.size),
        "bin_counts_sha256": _sha256(result.bin_counts),
        "offered_bins": int(result.offered_bin_counts.size),
        "offered_bin_counts_sha256": _sha256(result.offered_bin_counts),
        "dependence": dataclasses.asdict(report) if report is not None else None,
    }


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_counts_and_dependence_are_unchanged(cell, request):
    fingerprint = _fingerprint(CELLS[cell])
    if request.config.getoption("--update-goldens"):
        golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        golden[cell] = fingerprint
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        return
    golden = json.loads(GOLDEN_PATH.read_text())
    assert fingerprint == golden[cell]


#: Short cells for the conservation check: object, batch and hybrid,
#: the warmup whose 0.07-s bins do not divide the window, and a UDP
#: cell that offers the gateway more than ``FOLD_SIZE`` arrivals, so
#: the monitor folds mid-run.
CONSERVATION_CELLS = {
    "reno-object-n10": dict(protocol="reno", engine="object", n_clients=10),
    "reno-batch-n20": dict(protocol="reno", engine="batch", n_clients=20),
    "hybrid-reno-k5-n200": CELLS["hybrid-reno-k5-n200"],
    "reno-warmup-bin007-n20": CELLS["reno-warmup-bin007-n20"],
    "udp-object-folds": dict(protocol="udp", n_clients=10, mean_gap=0.001),
}


@pytest.mark.parametrize("cell", sorted(CONSERVATION_CELLS))
def test_flow_rows_sum_to_the_aggregate(cell):
    result = run_scenario(
        paper_config(duration=7.0, seed=3, **CONSERVATION_CELLS[cell])
    )
    rows = result.per_flow_bin_counts
    assert rows.shape == (len(result.per_flow), result.bin_counts.size)
    assert rows.sum(axis=0).tobytes() == result.bin_counts.tobytes()
    assert result.dependence() is not None
    if cell == "udp-object-folds":
        assert result.gateway_arrivals > FOLD_SIZE


def test_dependence_once_two_flows_send():
    one, two = (
        run_scenario(paper_config(n_clients=n, duration=3.0, seed=3)) for n in (1, 2)
    )
    assert one.per_flow_bin_counts.shape[0] == 1 and one.dependence() is None
    assert two.dependence().n_flows == 2
