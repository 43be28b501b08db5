"""The ledger's six workloads: inputs from a seed, timed region, checks.

Every workload runs with the code's *default* ``engine``/``scheduler``/
``pool`` -- what a user gets without knobs -- so a change of default, or
the deletion of a losing alternative, shows up end to end.  Inputs are a
pure function of the seed; the program only ever receives
:class:`ScenarioConfig` objects.

One *op* is one cell.  :func:`cell_failure` is the per-cell verdict
shared by all workloads; each workload adds its whole-workload checks
(the paper's Figure 2 shape, observed == plain twin, warm == cold).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.cache import ResultCache
from repro.experiments.config import ScenarioConfig, paper_config
from repro.experiments.figures import (
    FIGURE2_PROTOCOLS,
    figure2_cov,
    run_protocol_sweep,
)
from repro.experiments.results import ScenarioMetrics
from repro.experiments.runlog import RunLog
from repro.experiments.runner import POOLS
from repro.experiments.scenario import Scenario, run_scenario
from repro.experiments.sweep import run_many

from hostspeed import HostSpeed, reference_timed
from tracing import NullTracer

#: Worker processes for pooled workloads: load is generated from the
#: single driver process, on at most two cores.
JOBS = min(2, os.cpu_count() or 1)

Cells = Dict[str, ScenarioMetrics]
#: (metrics, whole-workload failures) of a workload's own traced extras.
Extras = Tuple[Dict[str, float], List[str]]


@dataclass
class Inputs:
    """What a workload's timed region consumes (made from the seed)."""

    seed: int
    configs: Dict[str, ScenarioConfig]
    #: Whether the (digest-excluded) engine profiler is on: the traced
    #: repetition's inputs differ from the untraced ones in this alone.
    profile: bool = False

    @property
    def flow_seconds(self) -> float:
        """Sum over cells of n_clients x duration: the fixed numerator
        of ``flow_s_per_s``, which fusing events cannot inflate."""
        return float(sum(c.n_clients * c.duration for c in self.configs.values()))


@dataclass
class Pass:
    """One execution of a workload's timed region."""

    #: perf_counter time at which the timed region began.
    started: float
    wall_s: float
    cells: Cells
    #: Workload-specific measurements taken during the pass.
    extras: Dict[str, float] = field(default_factory=dict)
    #: Whole-workload check failures (empty = the pass is correct).
    failures: List[str] = field(default_factory=list)
    #: The host-speed sampler that ran beside the pass (untraced passes).
    host: Optional[HostSpeed] = None

    def reference_seconds(self, metric: str = "wall_s") -> float:
        """``wall_s``, or the ``extras`` stretch that followed it, in
        reference-host seconds."""
        ended = self.started + self.wall_s
        if metric == "wall_s":
            return self.host.reference_seconds(self.started, ended)
        return self.host.reference_seconds(ended, ended + self.extras[metric])


# ----------------------------------------------------------------------
# Per-cell correctness
# ----------------------------------------------------------------------
def physics_record(metrics: ScenarioMetrics) -> Dict[str, Any]:
    """``as_dict()`` minus the wall-clock telemetry, floats as %.12g."""
    record = {}
    for name, value in metrics.as_dict().items():
        if name in ScenarioMetrics._WALL_CLOCK_FIELDS:
            continue
        record[name] = f"{value:.12g}" if isinstance(value, float) else value
    return record


def physics_digest(metrics: ScenarioMetrics) -> str:
    canonical = json.dumps(physics_record(metrics), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def simulated_outcome(metrics: ScenarioMetrics) -> Dict[str, Any]:
    """The physics record without the observation-only ``obs_*`` /
    ``forensic_*`` bookkeeping, which an observed run fills in and its
    plain twin leaves at the defaults."""
    return {
        name: value
        for name, value in physics_record(metrics).items()
        if not name.startswith(("obs_", "forensic_"))
    }


def cell_failure(config: ScenarioConfig, metrics: ScenarioMetrics) -> Optional[str]:
    """Why this cell counts as a failed op, or None."""
    if metrics.failed:
        return f"error: {metrics.error}"
    if not math.isfinite(metrics.cov):
        return "non-finite cov"
    if metrics.gateway_drops > metrics.gateway_arrivals:
        return "gateway_drops > gateway_arrivals"
    if metrics.throughput_pps > config.bottleneck_capacity_pps * (1 + 1e-9):
        return "throughput above bottleneck capacity"
    return None


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    name = ""
    why = ""
    #: Whether the cells run in a worker pool (JOBS processes).
    pooled = False
    #: Cells the traced repetition re-times under every engine x
    #: scheduler pair (the ROADMAP's "one engine, one scheduler" call).
    variant_cells: Tuple[str, ...] = ()

    def inputs(self, seed: int, profile: bool = False) -> Inputs:
        """The cells for ``seed``; ``profile`` turns the engine profiler
        on (the fluid backend has no engine to profile)."""
        configs = self.configs(seed)
        if profile:
            configs = {
                key: c.with_(obs_profile=True) if c.backend != "fluid" else c
                for key, c in configs.items()
            }
        return Inputs(seed, configs, profile)

    def configs(self, seed: int) -> Dict[str, ScenarioConfig]:
        raise NotImplementedError

    def warmup(self, inputs: Inputs) -> None:
        """One untimed cell, so lazy imports and first-call costs land
        in ``setup_s`` and not in the timed region."""
        first = next(iter(inputs.configs.values()))
        run_many(
            [first.with_(n_clients=min(first.n_clients, 10), duration=2.0)],
            processes=1,
            retries=0,
        )

    def run(self, inputs: Inputs, tracer, scratch: str, run_log: Optional[RunLog] = None) -> Pass:
        """The timed region: every cell in-process, serially."""
        configs = list(inputs.configs.values())
        start = time.perf_counter()
        with tracer.span("sweep"):
            results = run_many(configs, processes=1, retries=0, run_log=run_log)
        wall = time.perf_counter() - start
        return Pass(start, wall, dict(zip(inputs.configs, results)))

    def verify(self, inputs: Inputs, done: Pass) -> List[str]:
        """Whole-workload checks that need more runs (untimed)."""
        return []

    def reproduces(self, inputs: Inputs, done: Pass) -> Optional[str]:
        """For a seed without pinned digests: run the cheapest cell
        again from the same seed; the key of the cell if its digest
        moved, else None."""
        key = min(
            inputs.configs,
            key=lambda k: inputs.configs[k].n_clients * inputs.configs[k].duration,
        )
        again, = run_many([inputs.configs[key]], processes=1, retries=0)
        return key if physics_digest(again) != physics_digest(done.cells[key]) else None

    def accuracy(self, seed: int) -> Dict[str, float]:
        """Deterministic accuracy metrics (untimed; most have none)."""
        return {}

    def trace_extras(self, inputs: Inputs, untraced: Pass, traced: Pass, scratch: str) -> Extras:
        """Per-layer metrics only this workload has, measured after the
        traced pass with the tracer uninstalled."""
        return self.accuracy(inputs.seed), []


class Fig2Sweep(Workload):
    name = "fig2_sweep"
    why = (
        "the paper's headline artefact (Figure 2 c.o.v. vs N), serial and "
        "in-process; net+transport callbacks dominate"
    )
    CLIENTS = (20, 40, 60)
    variant_cells = ("reno/N60",)

    def base(self, seed: int) -> ScenarioConfig:
        return paper_config(duration=40, seed=seed)

    def configs(self, seed: int) -> Dict[str, ScenarioConfig]:
        base = self.base(seed)
        return {
            f"{key}/N{n}": base.with_(protocol=protocol, queue=queue, n_clients=n)
            for key, (protocol, queue) in FIGURE2_PROTOCOLS.items()
            for n in self.CLIENTS
        }

    def run(self, inputs: Inputs, tracer, scratch: str, run_log: Optional[RunLog] = None) -> Pass:
        base = self.base(inputs.seed).with_(obs_profile=inputs.profile)
        start = time.perf_counter()
        with tracer.span("sweep"):
            sweep = run_protocol_sweep(
                list(self.CLIENTS),
                base=base,
                protocols=FIGURE2_PROTOCOLS,
                processes=1,
                run_log=run_log,
            )
        with tracer.span("figure"):
            figure = figure2_cov(sweep, base)
        with tracer.span("render"):
            rendered = figure.render_table() + figure.render_plot()
        wall = time.perf_counter() - start
        cells = {
            f"{key}/N{m.n_clients}": m for key, series in sweep.items() for m in series
        }
        failures = [] if rendered else ["figure rendered empty"]
        if not any(m.failed for m in cells.values()):
            failures += self.shape_failures(cells)
        return Pass(start, wall, cells, failures=failures)

    def shape_failures(self, cells: Cells) -> List[str]:
        """The paper's Figure 2 shape, which a faster run must keep.

        At 40 simulated seconds one cell's c.o.v. carries about 7 %
        seed-to-seed noise, so every comparison except the two with a
        wide margin pools the client counts it is about: all three for
        the Poisson baseline, the two above the congestion knee (37.5
        clients) for the TCP orderings.  Pooled, the nearest condition
        sits five standard deviations from failing (seeds 30-99).
        """
        congested = [n for n in self.CLIENTS if n >= 40]
        top = max(self.CLIENTS)

        def cov(key: str, counts) -> float:
            return sum(cells[f"{key}/N{n}"].cov for n in counts)

        failures = []
        analytic = sum(cells[f"udp/N{n}"].analytic_cov for n in self.CLIENTS)
        if abs(cov("udp", self.CLIENTS) / analytic - 1.0) > 0.20:
            failures.append("UDP c.o.v. off the analytic 1/sqrt(N) curve")
        if not cov("reno", [top]) >= 2.0 * cov("udp", [top]):
            failures.append(f"Reno c.o.v. < 2x UDP at N={top}")
        if not cov("reno_red", congested) > cov("reno", congested):
            failures.append("RED did not make Reno burstier under congestion")
        if not (
            cells[f"reno_red/N{top}"].throughput_pps
            < cells[f"reno/N{top}"].throughput_pps
        ):
            failures.append(f"RED did not cost Reno throughput at N={top}")
        if not cov("vegas", congested) < cov("reno_red", congested):
            failures.append("Vegas not smoother than Reno+RED under congestion")
        return failures


class OverloadN500(Workload):
    name = "overload_n500"
    why = (
        "one 500-flow overloaded cell: deep calendar, traffic ticks and sim "
        "loop overhead dominate; where scheduler and engine knobs matter"
    )

    variant_cells = ("reno/fifo/N500",)
    #: Simulated seconds of the twin that stands in for the cell when a
    #: seed without pinned digests has to show it reproduces itself.
    RERUN_DURATION = 12

    def configs(self, seed: int) -> Dict[str, ScenarioConfig]:
        return {
            "reno/fifo/N500": paper_config(
                protocol="reno",
                queue="fifo",
                n_clients=500,
                mean_gap=0.05,
                bottleneck_rate_bps=0.8e6,
                duration=120,
                seed=seed,
            )
        }

    def reproduces(self, inputs: Inputs, done: Pass) -> Optional[str]:
        """The one cell is the whole workload, and a second run of it
        would double the run: a twin a tenth as long, run twice, has to
        reproduce itself instead.  (The traced repetition still runs
        the whole cell twice, and those digests must agree.)"""
        key, = inputs.configs
        twin = inputs.configs[key].with_(duration=self.RERUN_DURATION)
        first, = run_many([twin], processes=1, retries=0)
        second, = run_many([twin], processes=1, retries=0)
        return key if physics_digest(first) != physics_digest(second) else None


class AppsClosed(Workload):
    name = "apps_closed"
    why = (
        "closed-loop rpc/bsp/bulk jobs: apps + sink delivery hooks, no traffic "
        "layer, outside the batch-engine envelope"
    )

    def configs(self, seed: int) -> Dict[str, ScenarioConfig]:
        return {
            f"{workload}/{protocol}/{queue}": paper_config(
                workload=workload,
                protocol=protocol,
                queue=queue,
                n_clients=40,
                duration=100,
                seed=seed,
            )
            for workload in ("rpc", "bsp", "bulk")
            for protocol, queue in (("reno", "fifo"), ("vegas", "red"))
        }


class MeanfieldN1e5(Workload):
    name = "meanfield_n1e5"
    why = (
        "fluid and hybrid backends at N=100000: core solvers do nearly all the "
        "work, sim/net/transport almost none; carries the accuracy metrics"
    )
    XVAL_CLIENTS = 50
    XVAL_DURATION = 100
    XVAL_FOREGROUND = 10

    def configs(self, seed: int) -> Dict[str, ScenarioConfig]:
        return {
            f"{backend}/{protocol}/{queue}": paper_config(
                backend=backend,
                protocol=protocol,
                queue=queue,
                n_clients=100_000,
                duration=200,
                seed=seed,
            )
            for backend in ("fluid", "hybrid")
            for protocol in ("reno", "vegas")
            for queue in ("fifo", "red")
        }

    def accuracy(self, seed: int) -> Dict[str, float]:
        """Accuracy against the packet engine (untimed, deterministic).

        At N=50 the packet engine is affordable, so the same four
        protocol/queue cells run on all three backends; the hybrid's
        foreground flows share RNG streams with the packet run's first
        K flows, so those are compared flow for flow.
        """
        cov_err = thr_err = hybrid_err = 0.0
        k = self.XVAL_FOREGROUND
        for protocol in ("reno", "vegas"):
            for queue in ("fifo", "red"):
                base = paper_config(
                    protocol=protocol,
                    queue=queue,
                    n_clients=self.XVAL_CLIENTS,
                    duration=self.XVAL_DURATION,
                    seed=seed,
                )
                packet = run_scenario(base)
                fluid = run_scenario(base.with_(backend="fluid"))
                hybrid = run_scenario(
                    base.with_(backend="hybrid", hybrid_foreground_flows=k)
                )
                cov_err = max(cov_err, abs(fluid.cov - packet.cov))
                thr_err = max(
                    thr_err, abs(fluid.throughput_pps / packet.throughput_pps - 1.0)
                )
                same_flows = sum(f.delivered_unique for f in packet.per_flow[:k])
                foreground = sum(f.delivered_unique for f in hybrid.per_flow)
                hybrid_err = max(hybrid_err, abs(foreground / same_flows - 1.0))
        return {
            "xval_cov_err": cov_err,
            "xval_thr_relerr": thr_err,
            "xval_hybrid_thr_err": hybrid_err,
        }


class ObservedN40(Workload):
    name = "observed_n40"
    why = (
        "every obs trace category + forensics + streaming + export on one "
        "cell: obs/forensics/file I/O work here and nowhere else"
    )
    TRACE = ("cwnd", "rtt", "state", "queue", "drops")
    STREAM_INTERVAL = 5.0

    def configs(self, seed: int) -> Dict[str, ScenarioConfig]:
        return {
            "observed": paper_config(
                protocol="reno",
                queue="fifo",
                n_clients=40,
                duration=240,
                seed=seed,
                obs_trace=self.TRACE,
                forensics=True,
            )
        }

    @staticmethod
    def plain(observed: ScenarioConfig) -> ScenarioConfig:
        return observed.with_(obs_trace=(), forensics=False)

    def warmup(self, inputs: Inputs) -> None:
        config = inputs.configs["observed"].with_(n_clients=10, duration=2.0)
        Scenario(config).run()

    def run_observed(self, config, tracer, scratch: str) -> Tuple[float, float, Any, Dict[str, float]]:
        """(perf_counter start, wall, result, what was written)."""
        out = os.path.join(scratch, "observed")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        stream_path = os.path.join(out, "forensics_stream.jsonl")
        start = time.perf_counter()
        scenario = Scenario(config)
        with open(stream_path, "w", encoding="utf-8") as sink:
            scenario.attach_forensics_stream(sink, self.STREAM_INTERVAL)
            result = scenario.run()
        ran = time.perf_counter()
        with tracer.span("export"):
            paths = result.obs.export(os.path.join(out, "obs"), "jsonl")
        done = time.perf_counter()
        with open(stream_path, "rb") as handle:
            records = sum(1 for _ in handle)
        extras = {
            "observed_run_s": ran - start,
            "export_s": done - ran,
            "export_bytes": float(sum(os.path.getsize(p) for p in paths)),
            "stream_bytes": float(os.path.getsize(stream_path)),
            "stream_records": float(records),
        }
        return start, done - start, result, extras

    def run_plain(self, config) -> Tuple[float, ScenarioMetrics]:
        start = time.perf_counter()
        result = Scenario(self.plain(config)).run()
        return time.perf_counter() - start, ScenarioMetrics.from_result(result)

    def run(self, inputs: Inputs, tracer, scratch: str, run_log: Optional[RunLog] = None) -> Pass:
        start, wall, result, extras = self.run_observed(inputs.configs["observed"], tracer, scratch)
        return Pass(start, wall, {"observed": ScenarioMetrics.from_result(result)}, extras)

    def verify(self, inputs: Inputs, done: Pass) -> List[str]:
        """Observation must not move the physics: the plain twin -- same
        config, nothing observed -- has to land on the same outcome."""
        _, plain = self.run_plain(inputs.configs["observed"])
        if simulated_outcome(done.cells["observed"]) != simulated_outcome(plain):
            return ["observed physics differs from the plain twin"]
        return []

    def reproduces(self, inputs: Inputs, done: Pass) -> Optional[str]:
        return None  # the plain twin already is a same-seed re-run

    def trace_extras(self, inputs: Inputs, untraced: Pass, traced: Pass, scratch: str) -> Extras:
        """What was written, and observed / plain wall of build + run
        (no export): two pairs, back to back in alternating order."""
        config = inputs.configs["observed"]
        *_, first = self.run_observed(config, NullTracer(), scratch)
        plain_first, _ = self.run_plain(config)
        plain_second, _ = self.run_plain(config)
        *_, second = self.run_observed(config, NullTracer(), scratch)
        return {
            "obs.export_bytes": traced.extras["export_bytes"],
            "forensics.stream_bytes": traced.extras["stream_bytes"],
            "forensics.records": traced.extras["stream_records"],
            "observer_overhead": (
                first["observed_run_s"] / plain_first
                + second["observed_run_s"] / plain_second
            ) / 2.0,
        }, []


class GridTiny1024(Workload):
    name = "grid_tiny1024"
    why = (
        "1024 tiny cells through the pooled runner, cold then warm: runner, "
        "cache, cost model and run log dominate; writes beside reads"
    )
    pooled = True
    CELLS = 1024
    SHAPES = ((2, 0.8), (6, 1.6), (3, 3.2), (8, 0.8), (2, 2.4), (4, 1.6))

    def configs(self, seed: int) -> Dict[str, ScenarioConfig]:
        shapes = self.SHAPES
        return {
            f"{i:04d}": paper_config(
                n_clients=shapes[i % len(shapes)][0],
                duration=shapes[i % len(shapes)][1],
                seed=seed + i,
            )
            for i in range(self.CELLS)
        }

    def warmup(self, inputs: Inputs) -> None:
        run_many([next(iter(inputs.configs.values()))], processes=1, retries=0)

    def sweep(self, configs: List[ScenarioConfig], cache: str, **kwargs) -> List[ScenarioMetrics]:
        return run_many(configs, processes=JOBS, cache=cache, retries=0, **kwargs)

    def run(self, inputs: Inputs, tracer, scratch: str, run_log: Optional[RunLog] = None) -> Pass:
        configs = list(inputs.configs.values())
        cache = os.path.join(scratch, "grid_cache")
        shutil.rmtree(cache, ignore_errors=True)
        start = time.perf_counter()
        with tracer.span("sweep"):
            cold = self.sweep(configs, cache, run_log=run_log)
        cold_done = time.perf_counter()
        with tracer.span("resume"):
            warm = self.sweep(configs, cache)
        warm_s = time.perf_counter() - cold_done
        failures = [] if warm == cold else ["warm results differ from cold"]
        return Pass(
            start,
            cold_done - start,
            dict(zip(inputs.configs, cold)),
            {"resume_s": warm_s},
            failures,
        )

    def trace_extras(self, inputs: Inputs, untraced: Pass, traced: Pass, scratch: str) -> Extras:
        """The cold pass under every pool the runner exports (each
        must return the default's results), the warm pass, and direct
        timed loops over the cache layer's three operations."""
        configs = list(inputs.configs.values())
        expected = list(untraced.cells.values())
        resume_s = untraced.reference_seconds("resume_s")
        metrics = {
            "resume_s": resume_s,
            "experiments.resume_cells_per_s": len(configs) / resume_s,
        }
        failures = []
        for pool in POOLS:
            name = f"variant.pool.{pool}.wall_s"
            directory = os.path.join(scratch, f"pool_{pool}")
            metrics[name], results = reference_timed(
                lambda: self.sweep(configs, directory, pool=pool))
            shutil.rmtree(directory)
            if results != expected:
                failures.append(f"{name}: results differ from the default's")

        cache = ResultCache(os.path.join(scratch, "cache_loops"))
        pairs = list(zip(configs, expected))
        for name, operation in (
            ("cache_put_us", cache.put),
            ("cache_get_us", lambda config, _: cache.get(config)),
            ("digest_us", lambda config, _: config.config_digest()),
        ):
            start = time.perf_counter()
            for config, result in pairs:
                operation(config, result)
            per_op = (time.perf_counter() - start) / len(pairs)
            metrics[f"experiments.{name}"] = 1e6 * per_op
        shutil.rmtree(cache.directory)
        return metrics, failures


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Fig2Sweep(),
        OverloadN500(),
        AppsClosed(),
        MeanfieldN1e5(),
        ObservedN40(),
        GridTiny1024(),
    )
}
