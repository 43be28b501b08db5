"""Tests of the ledger itself.  Not part of tier-1 (``testpaths`` is
untouched); run explicitly, from the repository root:

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py

The live runs use the cheapest workload, so the module takes under a
minute.
"""

from __future__ import annotations

import copy
import json
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
for path in (str(REPO / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import compare  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import UNKNOWN, LayerIndex  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from repro.experiments.scenario import run_scenario  # noqa: E402

SCHEMA = json.loads((REPO / "BENCHMARK.json").read_text())
BASELINE = HERE / "baselines" / "BENCH_13.json"


def run_once(workload: str, trace: int, seed: int = 1) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=REPO, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# ----------------------------------------------------------------------
# Results validate against the schema in BENCHMARK.json
# ----------------------------------------------------------------------
def test_schema_names_the_ledger():
    assert SCHEMA["paths"] == ["benchmarks/ledger"]
    assert [w["name"] for w in SCHEMA["workloads"]] == list(WORKLOADS)
    names = [m["name"] for m in SCHEMA["end_to_end"] + SCHEMA["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SCHEMA["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SCHEMA["end_to_end"]) <= 0.25


@pytest.mark.parametrize("trace, listed", [(0, "end_to_end"), (1, "per_layer")])
def test_one_run_prints_exactly_the_listed_metrics(trace, listed):
    result = run_once("grid_tiny1024", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 1024
    expected = {m["name"]: m["unit"] for m in SCHEMA[listed]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        # The layers this workload bypasses read zero.
        for name in ("apps.self_s", "obs.self_s", "forensics.self_s", "core.solver_s"):
            assert result["metrics"][name]["value"] == 0
        assert 0.95 <= result["metrics"]["trace_coverage"]["value"] <= 1.05


@pytest.mark.skipif(not BASELINE.exists(), reason="no committed baseline")
def test_committed_baseline_matches_the_schema():
    ledger = json.loads(BASELINE.read_text())
    e2e = {m["name"] for m in SCHEMA["end_to_end"]}
    per_layer = {m["name"] for m in SCHEMA["per_layer"]}
    assert sorted(ledger["workloads"]) == sorted(WORKLOADS)
    for name, entry in ledger["workloads"].items():
        assert entry["ops_failed"] == 0 and entry["trace_ops_failed"] == 0, name
        assert e2e <= set(entry["end_to_end"]), name
        for stats in entry["end_to_end"].values():
            # The exact (xval_*) metrics run once per invocation.
            assert stats["n"] >= (1 if stats["bound"] == 0 else 3)
            assert stats["q1"] <= stats["median"] <= stats["q3"]
        assert set(entry["per_layer"]) <= per_layer, name
        layers = entry["per_layer"]
        callbacks = sum(
            layers[f"{layer}.self_s"]["value"]
            for layer in ("traffic", "net", "transport", "engine", "apps", "obs", "forensics")
        )
        assert layers["unknown.self_s"]["value"] <= 0.02 * max(callbacks, 1e-9), name


# ----------------------------------------------------------------------
# Host-speed sampling
# ----------------------------------------------------------------------
def test_host_speed_samples_the_main_thread_and_cleans_up():
    with HostSpeed(period_s=0.01) as host:
        start = time.perf_counter()
        while time.perf_counter() < start + 0.2:
            pass
        end = time.perf_counter()
    assert len(host.samples) >= 10  # one per period, plus the two at the edges
    assert 0.05 < host.speed() < 20
    # Reference seconds: the sampler's own share out, the rest scaled by
    # the speed sampled inside the stretch.
    busy = sum(spent for at, _, spent in host.samples if start <= at <= end)
    assert 0 < busy < end - start
    assert host.reference_seconds(start, end) == pytest.approx(
        (end - start - busy) * host.speed(start, end))
    half = (start + end) / 2
    assert host.reference_seconds(start, half) + host.reference_seconds(half, end) == \
        pytest.approx(host.reference_seconds(start, end), rel=0.2)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# ----------------------------------------------------------------------
# Inputs are a pure function of the seed
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_depend_on_the_seed_alone(name):
    workload = WORKLOADS[name]
    random.seed(0)
    first = workload.inputs(5)
    random.seed(123)
    again = workload.inputs(5)
    assert first.configs == again.configs
    assert first.flow_seconds == again.flow_seconds > 0
    assert all(c.seed >= 5 for c in first.configs.values())
    assert workload.inputs(6).configs != first.configs
    # The traced repetition's inputs differ in a digest-excluded flag only.
    profiled = workload.inputs(5, profile=True)
    assert [c.config_digest() for c in profiled.configs.values()] == [
        c.config_digest() for c in first.configs.values()
    ]


# ----------------------------------------------------------------------
# The class -> layer lookup
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def index():
    return LayerIndex()


def test_lookup_follows_the_package_tree(index):
    assert index.layer_of("Node.receive") == "net"
    assert index.layer_of("PoissonSource._tick") == "traffic"
    assert index.layer_of("RenoSender._on_timer") == "transport"
    assert index.layer_of("HybridCoupler._tick") == "core"
    assert index.layer_of("NoSuchClass.method") == UNKNOWN


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_lookup_leaves_little_callback_time_unknown(index, name):
    """Every kind of cell the workload runs, shrunk: at most 2 % of the
    engine profile's callback time may fall outside a known layer."""
    seen = set()
    by_layer = {}
    for config in WORKLOADS[name].inputs(1, profile=True).configs.values():
        kind = (config.backend, config.protocol, config.queue, config.workload)
        if kind in seen or config.backend == "fluid":
            continue
        seen.add(kind)
        small = config.with_(n_clients=min(config.n_clients, 12), duration=4.0)
        profile = run_scenario(small).obs.engine
        for stat in profile.categories:
            layer = index.layer_of(stat.category)
            by_layer[layer] = by_layer.get(layer, 0.0) + stat.wall_time
    if not by_layer:  # fluid only: no engine, nothing to look up
        return
    assert by_layer.get(UNKNOWN, 0.0) <= 0.02 * sum(by_layer.values()), by_layer


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def synthetic_ledger() -> dict:
    def stats(values, unit, better, bound):
        ordered = sorted(values)
        return {"median": ordered[2], "q1": ordered[1], "q3": ordered[3], "n": 5,
                "values": values, "unit": unit, "better": better, "bound": bound}

    return {
        "seed": 1,
        "workloads": {
            "overload_n500": {
                "end_to_end": {
                    "wall_s": stats([10.0, 10.1, 10.2, 10.3, 10.4], "s", "lower", 0.10),
                    "flow_s_per_s": stats([5769, 5825, 5882, 5940, 6000], "flow.s/s", "higher", 0.10),
                    "xval_cov_err": stats([0.089] * 5, "cov", "lower", 0.0),
                },
                "ops_attempted": 5,
                "ops_failed": 0,
                "digests": {"reno/fifo/N500": "0123456789abcdef"},
            }
        },
    }


def statuses(report: dict) -> dict:
    found = {(r["workload"], r["metric"]): r["status"] for r in report["rows"]}
    found.update({(c["workload"], c["check"]): c["status"] for c in report["checks"]})
    return found


def test_compare_passes_a_pair_of_the_same_results():
    ledger = synthetic_ledger()
    report = compare.compare(ledger, copy.deepcopy(ledger))
    assert report["exit"] == 0
    assert set(statuses(report).values()) == {"ok"}


def test_compare_flags_a_wall_regression():
    base, slow = synthetic_ledger(), synthetic_ledger()
    wall = slow["workloads"]["overload_n500"]["end_to_end"]["wall_s"]
    for key in ("median", "q1", "q3"):
        wall[key] *= 1.2
    wall["values"] = [v * 1.2 for v in wall["values"]]
    report = compare.compare(base, slow)
    assert report["exit"] == 1
    assert statuses(report)[("overload_n500", "wall_s")] == "worse"
    assert statuses(report)[("overload_n500", "flow_s_per_s")] == "ok"


def test_compare_reports_noisy_overlapping_runs_as_unresolved():
    base, other = synthetic_ledger(), synthetic_ledger()
    noisy = base["workloads"]["overload_n500"]["end_to_end"]["wall_s"]
    noisy.update(values=[8.0, 9.0, 10.2, 12.0, 13.0], q1=9.0, q3=12.0)
    report = compare.compare(base, other)
    assert statuses(report)[("overload_n500", "wall_s")] == "unresolved"
    assert report["exit"] == 0


def test_compare_flags_a_digest_mismatch_and_exact_metrics():
    base, moved = synthetic_ledger(), synthetic_ledger()
    entry = moved["workloads"]["overload_n500"]
    entry["digests"]["reno/fifo/N500"] = "fedcba9876543210"
    report = compare.compare(base, moved)
    assert report["exit"] == 1
    assert statuses(report)[("overload_n500", "physics digests")] == "worse"

    drifted = synthetic_ledger()
    xval = drifted["workloads"]["overload_n500"]["end_to_end"]["xval_cov_err"]
    xval.update(values=[0.0891] * 5, median=0.0891, q1=0.0891, q3=0.0891)
    report = compare.compare(base, drifted)
    assert statuses(report)[("overload_n500", "xval_cov_err")] == "worse"
    assert report["exit"] == 1

    failing = synthetic_ledger()
    failing["workloads"]["overload_n500"]["ops_failed"] = 1
    assert compare.compare(base, failing)["exit"] == 1
