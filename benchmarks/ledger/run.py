#!/usr/bin/env python3
"""The performance ledger: six seeded workloads, measured end to end
and layer by layer, with correctness checked on every run.

Two ways in, one code path:

* **One run** (what ``BENCHMARK.json``'s ``command`` is):
  ``run.py --workload NAME --seed N --seconds S --trace 0|1`` executes
  one workload in this process and prints, as the last line of stdout,
  one JSON object ``{correct, attempted, failed, metrics}``.  With
  ``--trace 0`` the metrics are the end-to-end ones, measured with no
  tracing installed; with ``--trace 1`` they are the per-layer ones.
* **The ledger** (no ``--seconds``): ``run.py --seed 1 [--workload
  NAME] [--reps N] [--trace] [--out PATH]`` spawns one child process per
  (workload, repetition) -- so ``peak_rss_mb`` and ``setup_s`` are per
  workload -- and reports each end-to-end metric as median, quartiles
  and sample count; ``--trace`` adds one separate traced repetition per
  workload for the per-layer numbers.

See README.md beside this file for the workloads, the metrics and how
to read a trace file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path.insert(0, str(REPO / "src"))

from hostspeed import HostSpeed  # noqa: E402
from perlayer import engine_variants, layer_metrics, runner_metrics  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    JOBS,
    WORKLOADS,
    Inputs,
    Pass,
    Workload,
    cell_failure,
    physics_digest,
)

from repro.experiments.runlog import RunLog  # noqa: E402
from repro.obs.engineprof import peak_rss_kb  # noqa: E402

SCHEMA_PATH = REPO / "BENCHMARK.json"
EXPECTED_PATH = HERE / "expected.json"
OUT_DIR = HERE / "out"
LEDGER_SCHEMA = "repro-ledger/1"
#: The seed whose per-cell physics digests are pinned in expected.json.
DEFAULT_SEED = 1
DEFAULT_REPS = 5
#: How many times a run sets up (in fresh interpreters) for ``setup_s``.
SETUP_PROBES = 3
#: Bounds of the end-to-end metrics only some workloads have (0 =
#: deterministic, compared exactly).  The driver contract wants every
#: end-to-end metric from every workload, so BENCHMARK.json lists these
#: under ``per_layer``, which carries no bounds; the ledger's own result
#: files and compare.py still treat them as end to end.
WORKLOAD_E2E_BOUNDS = {
    "resume_s": 0.15,
    "xval_cov_err": 0.0,
    "xval_thr_relerr": 0.0,
    "xval_hybrid_thr_err": 0.0,
}


def load_schema() -> Dict[str, Any]:
    with open(SCHEMA_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """Largest resident set of this process or of any child it has
    waited for (pool workers), in MB."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(peak_rss_kb(), children) / 1024.0


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of: process start -> ready to
    enter the timed region (interpreter, imports, inputs, warm-up), in
    reference-host seconds."""
    samples = []
    for _ in range(SETUP_PROBES):
        command = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        started = time.time()
        done = subprocess.run(command, check=True, capture_output=True, text=True)
        probe = json.loads(done.stdout.splitlines()[-1])
        samples.append((probe["ready"] - started) * probe["reference_share"])
    return statistics.median(samples)


def sampled_pass(workload: Workload, inputs: Inputs, scratch: str) -> Pass:
    """One untraced pass of the timed region, with the host's speed
    sampled while it runs."""
    with HostSpeed() as host:
        done = workload.run(inputs, NullTracer(), scratch)
    done.host = host
    return done


def judge(
    workload: Workload,
    inputs: Inputs,
    passes: List[Pass],
    repin: bool = False,
    extra_failures: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Count failed ops.  One op is one cell; a whole-workload failure
    (the Figure 2 shape, the plain twin, warm == cold, a variant whose
    physics moved) fails every op."""
    last = passes[-1]
    digests = {key: physics_digest(m) for key, m in last.cells.items()}
    failures: Dict[str, str] = {}
    for key, metrics in last.cells.items():
        reason = cell_failure(inputs.configs[key], metrics)
        if reason:
            failures[key] = reason
    for earlier in passes[:-1]:
        for key, metrics in earlier.cells.items():
            if physics_digest(metrics) != digests[key]:
                failures.setdefault(key, "digest differs between passes of one run")

    if inputs.seed == DEFAULT_SEED:
        expected = _read_expected()
        if repin:
            expected[workload.name] = digests
            _write_expected(expected)
        for key, digest in digests.items():
            if expected.get(workload.name, {}).get(key) != digest:
                failures.setdefault(key, "physics digest differs from expected.json")
    elif len(passes) == 1:
        # No pinned digest for this seed: one cell, run again from the
        # same seed, must reproduce itself.
        moved = workload.reproduces(inputs, last)
        if moved is not None:
            failures.setdefault(moved, "same-seed re-run changed the digest")

    whole = [f for p in passes for f in p.failures] + workload.verify(inputs, last)
    whole += extra_failures or []
    attempted = len(last.cells)
    return {
        "ops_attempted": attempted,
        "ops_failed": attempted if whole else len(failures),
        "failures": whole + [f"{key}: {why}" for key, why in sorted(failures.items())],
        "digests": digests,
    }


def _read_expected() -> Dict[str, Dict[str, str]]:
    if not EXPECTED_PATH.exists():
        return {}
    with open(EXPECTED_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _write_expected(expected: Dict[str, Dict[str, str]]) -> None:
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=0, sort_keys=True)
        handle.write("\n")


def run_untraced(workload: Workload, args, scratch: str) -> Dict[str, Any]:
    setup_s = measure_setup(workload.name, args.seed)
    inputs = workload.inputs(args.seed)
    workload.warmup(inputs)
    # Repeat the timed region until --seconds of it have been measured.
    passes: List[Pass] = []
    while not passes or sum(p.wall_s for p in passes) < args.seconds:
        passes.append(sampled_pass(workload, inputs, scratch))
    rss = peak_rss_mb()
    wall_s = statistics.median(p.reference_seconds() for p in passes)
    metrics = {
        "wall_s": wall_s,
        "flow_s_per_s": inputs.flow_seconds / wall_s,
        "peak_rss_mb": rss,
        "setup_s": setup_s,
        "wall_raw_s": statistics.median(p.wall_s for p in passes),
        "host_speed": statistics.median(p.host.speed() for p in passes),
    }
    if "resume_s" in passes[0].extras:
        metrics["resume_s"] = statistics.median(
            p.reference_seconds("resume_s") for p in passes)
    if args.xval:
        metrics.update(workload.accuracy(args.seed))
    result = judge(workload, inputs, passes, repin=args.repin)
    result.update(metrics=metrics, passes=len(passes))
    return result


def run_traced(workload: Workload, args, scratch: str) -> Dict[str, Any]:
    """One untraced pass (the reference), then the same pass with the
    span wrappers and the engine profiler on, then the variants."""
    inputs = workload.inputs(args.seed)
    workload.warmup(inputs)
    untraced = sampled_pass(workload, inputs, scratch)

    tracer = Tracer(scratch)
    runlog_path = os.path.join(scratch, "runlog.jsonl")
    profiled = workload.inputs(args.seed, profile=True)
    tracer.install()
    try:
        with RunLog(runlog_path) as run_log:
            traced = workload.run(profiled, tracer, scratch, run_log=run_log)
    finally:
        tracer.uninstall()
    tracer.merge_spilled()

    jobs = JOBS if workload.pooled else 1
    metrics = layer_metrics(tracer, traced, jobs)
    metrics.update(runner_metrics(untraced, jobs, runlog_path))
    # Both raw, run back to back in one process (the untraced pass
    # carries the host-speed sampler, about 2 % of it).
    metrics["trace_overhead"] = traced.wall_s / untraced.wall_s
    metrics["wall_raw_s"] = untraced.wall_s
    metrics["host_speed"] = untraced.host.speed()
    extra_failures: List[str] = []
    for key in workload.variant_cells:
        walls, failed = engine_variants(inputs.configs[key], untraced.cells[key])
        metrics.update(walls)
        extra_failures += failed
    extras, failed = workload.trace_extras(inputs, untraced, traced, scratch)
    metrics.update(extras)
    extra_failures += failed

    # The traced pass runs the same configs plus a digest-excluded
    # profiler flag, so its physics must equal the untraced pass's.
    result = judge(workload, inputs, [traced, untraced], repin=args.repin,
                   extra_failures=extra_failures)
    result.update(metrics=metrics, passes=1)
    write_trace(workload, args.seed, tracer, untraced, traced, metrics)
    return result


def write_trace(workload: Workload, seed: int, tracer: Tracer, untraced: Pass, traced: Pass, metrics: Dict[str, float]) -> None:
    totals = tracer.totals()
    cells = tracer.cells
    if len(cells) > 64:  # keep a big grid's file readable: layer sums only
        cells = [
            {k: v for k, v in cell.items() if k not in ("spans", "categories")}
            for cell in cells
        ]
    trace = {
        "schema": LEDGER_SCHEMA,
        "workload": workload.name,
        "seed": seed,
        "untraced_wall_s": untraced.wall_s,
        "traced_wall_s": traced.wall_s,
        "tracer_costs_s": tracer.costs,
        "layers_self_s": totals["layers"],
        "layer_events": totals["layer_events"],
        "categories": [
            {"category": name, "layer": tracer.index.layer_of(name), "events": events, "wall_s": wall}
            for name, (events, wall) in sorted(totals["categories"].items(), key=lambda kv: -kv[1][1])
        ],
        "spans": [
            {"span": key, "parent": parent, "count": count, "total_s": total, "self_s": self_s}
            for (key, parent), (count, total, self_s) in sorted(totals["spans"].items(), key=lambda kv: -kv[1][1])
        ],
        "regions": tracer.regions,
        "cells": cells,
        "per_layer": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace_{workload.name}.json", "w", encoding="utf-8") as handle:
        json.dump(trace, handle, indent=1)
        handle.write("\n")


def run_one_workload(args) -> int:
    schema = load_schema()
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    scratch = str(OUT_DIR / f"scratch_{workload.name}_{os.getpid()}")
    os.makedirs(scratch)
    try:
        if args.trace:
            result = run_traced(workload, args, scratch)
        else:
            result = run_untraced(workload, args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result.update(workload=workload.name, seed=args.seed, trace=args.trace)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)

    units = metric_units(schema)
    for failure in result["failures"]:
        print(f"FAILED {workload.name}: {failure}")
    for name, value in result["metrics"].items():
        print(f"{workload.name} {name} {value:.6g} {units.get(name, '')}")
    print(f"{workload.name} ops_attempted {result['ops_attempted']} count")
    print(f"{workload.name} ops_failed {result['ops_failed']} count")
    # The contract line: exactly the names BENCHMARK.json lists for this
    # mode.  A listed per-layer name this code no longer produces (a
    # deleted knob's variant row) reads 0.
    listed = schema["per_layer"] if args.trace else schema["end_to_end"]
    print(json.dumps({
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {
            m["name"]: {"value": float(result["metrics"].get(m["name"], 0.0)), "unit": m["unit"]}
            for m in listed
        },
    }))
    return 0


def metric_units(schema: Dict[str, Any]) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in schema["end_to_end"] + schema["per_layer"]}


# ----------------------------------------------------------------------
# The ledger: one child per (workload, repetition)
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, seconds: int, trace: int, tag: str, extra: List[str]) -> Dict[str, Any]:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"child_{workload}_{tag}.json"
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--out", str(path)] + extra
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} ({tag}) exited with {done.returncode}")
    with open(path, "r", encoding="utf-8") as handle:
        result = json.load(handle)
    path.unlink()
    return result


def summarize(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles (statistics.quantiles, n=4) and sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def run_ledger(args) -> int:
    schema = load_schema()
    e2e_specs = {m["name"]: m for m in schema["end_to_end"]}
    e2e_specs.update({
        m["name"]: dict(m, bound=WORKLOAD_E2E_BOUNDS[m["name"]])
        for m in schema["per_layer"] if m["name"] in WORKLOAD_E2E_BOUNDS
    })
    units = metric_units(schema)
    names = [args.workload] if args.workload else [w["name"] for w in schema["workloads"]]
    started = time.time()
    ledger: Dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "seed": args.seed,
        "reps": args.reps,
        "run_seconds": schema["run_seconds"],
        "jobs": JOBS,
        "python": platform.python_version(),
        "machine": f"{platform.system()} {platform.machine()} x{os.cpu_count()}",
        "workloads": {},
    }
    for name in names:
        entry: Dict[str, Any] = {"why": WORKLOADS[name].why}
        runs = []
        for rep in range(args.reps):
            # The accuracy cells and the re-pin happen once, untimed.
            extra = (["--xval"] if rep == 0 else []) + (["--repin"] if rep == 0 and args.repin else [])
            runs.append(spawn(name, args.seed, schema["run_seconds"], 0, f"rep{rep}", extra))
            print(f"# {name} rep {rep}: wall_s {runs[-1]['metrics']['wall_s']:.3f}", file=sys.stderr)
        if runs:
            entry["end_to_end"] = {}
            for metric, spec in e2e_specs.items():
                values = [r["metrics"][metric] for r in runs if metric in r["metrics"]]
                if values:
                    entry["end_to_end"][metric] = dict(
                        summarize(values), unit=spec["unit"], better=spec["better"], bound=spec["bound"])
            # Not judged: what the host was doing while the above ran.
            entry["host"] = {
                metric: dict(summarize([r["metrics"][metric] for r in runs]), unit=units[metric])
                for metric in ("wall_raw_s", "host_speed")
            }
            entry["ops_attempted"] = sum(r["ops_attempted"] for r in runs)
            entry["ops_failed"] = sum(r["ops_failed"] for r in runs)
            entry["failures"] = sorted({f for r in runs for f in r["failures"]})
            entry["digests"] = runs[0]["digests"]
            if any(r["digests"] != entry["digests"] for r in runs):
                entry["failures"].append("digests differ between repetitions")
                entry["ops_failed"] = entry["ops_attempted"]
        if args.trace:
            traced = spawn(name, args.seed, schema["run_seconds"], 1, "trace", [])
            entry["per_layer"] = {
                metric: {"value": value, "unit": units.get(metric, "")}
                for metric, value in traced["metrics"].items()
            }
            entry["trace_ops_attempted"] = traced["ops_attempted"]
            entry["trace_ops_failed"] = traced["ops_failed"]
            entry["trace_failures"] = traced["failures"]
        ledger["workloads"][name] = entry
        print_entry(name, entry)
    ledger["wall_s_total"] = time.time() - started
    print(f"full run: {ledger['wall_s_total']:.1f} s")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(ledger, handle, indent=1, sort_keys=True)
            handle.write("\n")
    failed = sum(e.get("ops_failed", 0) + e.get("trace_ops_failed", 0) for e in ledger["workloads"].values())
    return 1 if failed else 0


def print_entry(name: str, entry: Dict[str, Any]) -> None:
    for metric, stats in entry.get("end_to_end", {}).items():
        print(f"{name} {metric} {stats['median']:.6g} {stats['unit']} "
              f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, n={stats['n']}]")
    for metric, stats in entry.get("host", {}).items():
        print(f"{name} {metric} {stats['median']:.6g} {stats['unit']} (host, not judged)")
    if "ops_attempted" in entry:
        print(f"{name} ops_attempted {entry['ops_attempted']} count")
        print(f"{name} ops_failed {entry['ops_failed']} count")
    for metric, item in entry.get("per_layer", {}).items():
        print(f"{name} {metric} {item['value']:.6g} {item['unit']}")
    for failure in entry.get("failures", []) + entry.get("trace_failures", []):
        print(f"FAILED {name}: {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seconds", type=float,
                        help="one run in this process, measuring at least this long")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--reps", type=int, default=DEFAULT_REPS,
                        help="untraced repetitions per workload (ledger mode)")
    parser.add_argument("--out", help="write the full results as JSON here")
    parser.add_argument("--repin", action="store_true",
                        help=f"rewrite expected.json from this run (seed {DEFAULT_SEED} only)")
    parser.add_argument("--xval", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds runs one workload: give --workload")
        return run_one_workload(args)
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
