"""Per-layer metrics of one traced repetition.

Every name produced here is listed, with its unit, under ``per_layer``
in ``BENCHMARK.json``; the README's table says which end-to-end metric
each one should move, on which workload.  A metric whose layer did no
work on a workload reads 0 there -- that is the prediction for the
workloads that bypass the layer.
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Tuple

from repro.engine import ENGINES
from repro.experiments.config import ScenarioConfig
from repro.experiments.results import ScenarioMetrics
from repro.experiments.runlog import read_runlog, summarize_runlog
from repro.experiments.sweep import run_many
from repro.sim import SCHEDULERS

from hostspeed import reference_timed
from tracing import TRACING, UNKNOWN, Tracer
from workloads import Pass

LAYERS = ("traffic", "net", "transport", "engine", "apps", "obs", "forensics")


def layer_metrics(tracer: Tracer, traced: Pass, jobs: int) -> Dict[str, float]:
    """What the spans and engine profiles of the traced pass add up to
    (``jobs`` = how many processes ran its cells side by side)."""
    totals = tracer.totals()
    layers, events = totals["layers"], totals["layer_events"]
    sums, spans = totals["sums"], totals["spans"]

    def span_count(*suffixes: str) -> int:
        return sum(
            count
            for (key, _parent), (count, _total, _self) in spans.items()
            if key.endswith(suffixes)
        )

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layers.get(layer, 0.0)
    for layer in ("traffic", "net", "engine", "apps"):
        metrics[f"{layer}.events"] = events.get(layer, 0)
    sim_events = sums.get("events", 0.0)
    # run_wall_time - sum of callbacks, less the profiler's own
    # calibrated per-event cost (which the engine books to the loop).
    metrics["sim.loop_overhead_s"] = layers.get("sim", 0.0)
    metrics["sim.overhead_us_per_event"] = (
        1e6 * metrics["sim.loop_overhead_s"] / sim_events if sim_events else 0.0
    )
    metrics["sim.events"] = sim_events
    metrics["sim.max_depth"] = totals["max_depth"]
    metrics["net.queue_ops"] = span_count(".enqueue", ".dequeue")
    metrics["transport.calls"] = span_count(".receive", ".app_arrival")
    cells = [m for m in traced.cells.values() if not m.failed]
    metrics["net.drops"] = sum(m.gateway_drops for m in cells)
    metrics["transport.timeouts"] = sum(m.timeouts for m in cells)
    metrics["obs.samples"] = sum(
        m.obs_cwnd_samples
        + m.obs_rtt_samples
        + m.obs_queue_samples
        + m.obs_drop_events
        + m.obs_state_transitions
        for m in cells
    )

    # The mean-field solvers: the fluid backend's whole call, and the
    # hybrid coupler's tick, which integrates the same ODE system from
    # inside the event loop.
    tick_events, tick_s = totals["categories"].get("HybridCoupler._tick", (0, 0.0))
    metrics["core.solver_s"] = sums.get("solver_s", 0.0) + tick_s
    metrics["core.solver_steps"] = sums.get("solver_steps", 0.0) + tick_events
    metrics["core.step_us"] = (
        1e6 * metrics["core.solver_s"] / metrics["core.solver_steps"]
        if metrics["core.solver_steps"]
        else 0.0
    )
    metrics["core.collect_s"] = sums.get("collect_s", 0.0)
    metrics["experiments.build_s"] = sums.get("build_s", 0.0)
    metrics["experiments.figure_s"] = tracer.region_seconds("figure")
    metrics["analysis.render_s"] = tracer.region_seconds("render")
    metrics["obs.export_s"] = tracer.region_seconds("export")
    metrics["forensics.finalize_s"] = sum(
        total
        for (key, _parent), (_count, total, _self) in spans.items()
        if key.endswith("ForensicsProbe.finalize")
    )
    metrics["unknown.self_s"] = layers.get(UNKNOWN, 0.0)
    metrics["tracing.self_s"] = layers.get(TRACING, 0.0)

    # Per-layer self times over the traced wall.  The experiments layer
    # also gets whatever of the sweep span its cells do not cover
    # (dispatch, cost model, flattening results); cells that ran side
    # by side in a pool cover 1/jobs of the wall each.
    in_cells = sums.get("build_s", 0.0) + sums.get("run_s", 0.0) + sums.get("solver_s", 0.0)
    sweep_s = tracer.region_seconds("sweep") or in_cells / jobs
    attributed = (
        sum(layers.values()) / jobs
        + (sweep_s - in_cells / jobs)
        + metrics["experiments.figure_s"]
        + metrics["analysis.render_s"]
        + metrics["obs.export_s"]
    )
    metrics["trace_coverage"] = attributed / traced.wall_s
    return metrics


def runner_metrics(untraced: Pass, jobs: int, runlog_path: str) -> Dict[str, float]:
    """The sweep machinery as seen from outside: what of the wall is not
    cells, and how busy the workers were (from the traced pass's run log)."""
    cell_wall = sum(m.perf_wall_time for m in untraced.cells.values() if not m.failed)
    metrics = {
        "experiments.runner_overhead_s": untraced.wall_s - cell_wall / jobs,
        "experiments.cells_per_s": len(untraced.cells) / untraced.wall_s,
        "experiments.worker_utilization": 0.0,
        "experiments.retries": 0,
    }
    if os.path.exists(runlog_path):
        summary = summarize_runlog(read_runlog(runlog_path))
        if not math.isnan(summary["utilization"]):
            metrics["experiments.worker_utilization"] = summary["utilization"]
        metrics["experiments.retries"] = summary["retried"]
    return metrics


def engine_variants(config: ScenarioConfig, reference: ScenarioMetrics) -> Tuple[Dict[str, float], List[str]]:
    """Wall of one cell under every engine x scheduler pair the config
    validates under; each pair's physics must equal ``reference``, the
    same cell's metrics under the defaults.

    The pairs come from the constants the code exports, so deleting a
    knob value removes a row rather than failing an op.
    """
    walls: Dict[str, float] = {}
    failures: List[str] = []
    for engine in ENGINES:
        for scheduler in SCHEDULERS:
            variant = config.with_(engine=engine, scheduler=scheduler)
            try:
                variant.validate()
            except ValueError:
                continue
            name = f"variant.{engine}.{scheduler}.wall_s"
            walls[name], (metrics,) = reference_timed(
                lambda: run_many([variant], processes=1, retries=0))
            if metrics != reference:
                failures.append(f"{name}: physics differs from the default's")
    return walls, failures
