"""The ``repro-tcp`` command-line tool.

Subcommands regenerate each paper artifact from the terminal::

    repro-tcp table1
    repro-tcp run --protocol reno --queue red --clients 40
    repro-tcp fig2 --clients 4:60:8 --duration 50
    repro-tcp fig3 / fig4 / fig13
    repro-tcp cwnd --protocol vegas --clients 30

Sweeps accept ``--csv PATH`` / ``--json PATH`` to persist results, plus
execution-backbone flags: ``--jobs/-j`` (worker count), ``--schedule``
(``cost`` longest-expected-first or ``fifo``), ``--cache-dir`` / ``--resume`` (content-addressed result
cache; interrupted sweeps pick up where they stopped), ``--timeout`` /
``--retries`` (kill and retry hung or crashed workers), and
``--run-log`` / ``--progress`` (JSONL telemetry / live counters).
``repro-tcp sweeplog RUN.jsonl`` folds a run log back into a makespan /
worker-utilization report.

Observability (the flight recorder)::

    repro-tcp run --trace cwnd,queue --obs-dir out/     # per-flow series
    repro-tcp run --trace-file run.tr                   # ns-2 trace lines
    repro-tcp profile --clients 40 --duration 50        # engine profile

``--trace CATS`` enables trace categories (``cwnd``, ``rtt``,
``state``, ``queue``, ``drops``, or ``all``); ``--obs-dir`` exports the
captured series as JSONL (``--obs-format csv`` for CSV) together with
an engine profile; ``--trace-file`` streams ns-2 format events at the
bottleneck.  The ``profile`` subcommand runs one scenario under the
engine profiler and prints a per-callback-category table
(``--json PATH`` for machine-readable output).

Burst forensics (see repro.forensics)::

    repro-tcp forensics --clients 40 --duration 50       # who caused it?
    repro-tcp run --forensics --queue red --clients 40

``forensics`` segments the gateway queue into burst episodes, ranks
each episode's top-k contributing flows (exact accountant
cross-validated against a space-saving sketch), links episodes to
loss-synchronization events, and prints the stacked attribution
timeline (``--json`` dumps the report payload, ``--obs-dir`` exports
the per-window series).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional, Sequence

from repro.analysis.io import results_to_csv, results_to_json
from repro.analysis.asciiplot import ascii_step_plot
from repro.analysis.tables import format_table
from repro.experiments.config import WORKLOADS, paper_config, table1_rows
from repro.experiments.figures import (
    FLUID_CLIENT_COUNTS,
    FORENSICS_CLIENT_COUNTS,
    HYBRID_CLIENT_COUNTS,
    LARGEN_CLIENT_COUNTS,
    FigureData,
    cwnd_trace_experiment,
    figure2_cov,
    figure3_throughput,
    figure3_throughput_per_flow,
    figure4_drops_per_flow,
    figure4_loss,
    figure13_timeout_ratio,
    figure_burst_attribution,
    figure_fluid_cov,
    figure_forensics_sweep,
    figure_hybrid_cov,
    figure_largen_cov,
    run_fluid_sweep,
    run_forensics_sweep,
    run_hybrid_sweep,
    run_largen_sweep,
    run_protocol_sweep,
)
from repro.experiments.replication import replicate
from repro.experiments.results import ScenarioMetrics, metrics_table
from repro.experiments.scenario import Scenario, run_scenario
from repro.obs.probes import parse_trace_spec


def parse_range(spec: str) -> List[int]:
    """Parse 'start:stop:step' (inclusive) or a comma list into ints."""
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise argparse.ArgumentTypeError("ranges look like start:stop[:step]")
        start, stop = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
        if step <= 0 or stop < start:
            raise argparse.ArgumentTypeError("need start <= stop and step > 0")
        return list(range(start, stop + 1, step))
    return [int(part) for part in spec.split(",") if part]


#: Default cache directory used by ``--resume`` when ``--cache-dir``
#: was not given explicitly.
DEFAULT_CACHE_DIR = ".repro-cache"


def _positive_float(value: str) -> float:
    parsed = float(value)
    if parsed <= 0:
        raise argparse.ArgumentTypeError("must be positive")
    return parsed


def _non_negative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return parsed


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--duration", type=float, default=None, help="run length, s")
    parser.add_argument("--seed", type=int, default=None, help="root RNG seed")
    parser.add_argument(
        "--backend",
        choices=["packet", "fluid", "hybrid"],
        default=None,
        help="scenario solver: the discrete-event packet engine "
        "(default), the mean-field fluid limit (reno/vegas x "
        "fifo/red, cost independent of client count), or the hybrid "
        "co-simulation (K packet-exact foreground flows against the "
        "fluid background)",
    )
    parser.add_argument(
        "--hybrid-foreground",
        type=int,
        default=None,
        metavar="K",
        help="hybrid backend: packet-exact foreground flows (default 10)",
    )
    parser.add_argument(
        "--hybrid-background",
        type=int,
        default=None,
        metavar="N_BG",
        help="hybrid backend: fluid background flows "
        "(default 0 = the ambient remainder, clients - K)",
    )
    parser.add_argument(
        "--hybrid-coupling-dt",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hybrid backend: fluid/packet coupling interval "
        "(default 0 = every RK4 step)",
    )
    parser.add_argument(
        "--engine",
        choices=["object", "batch"],
        default=None,
        help="force a flow-state engine: per-flow objects (the "
        "reference) or the struct-of-arrays batch engine with fused "
        "transport events.  Default: batch for cells inside its "
        "envelope (reno/vegas, open poisson or rpc, packet backend), "
        "where results are identical, and objects for the rest",
    )
    parser.add_argument("--processes", type=int, default=None, help="worker count")
    parser.add_argument(
        "--jobs",
        "-j",
        dest="processes",
        type=int,
        default=None,
        help="worker count (alias for --processes)",
    )
    parser.add_argument(
        "--schedule",
        choices=["cost", "fifo"],
        default="cost",
        help="cell ordering: longest-expected-first via the cost model "
        "(default, minimizes makespan) or submission order",
    )
    parser.add_argument("--csv", default=None, help="write results to CSV")
    parser.add_argument("--json", default=None, help="write results to JSON")
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed result cache directory (hits skip re-runs)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=f"resume an interrupted sweep from the cache "
        f"(defaults --cache-dir to {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--timeout",
        type=_positive_float,
        default=None,
        help="per-scenario wall-clock limit, seconds (hung workers are killed)",
    )
    parser.add_argument(
        "--retries",
        type=_non_negative_int,
        default=1,
        help="extra attempts per cell after a crash/timeout (default 1)",
    )
    parser.add_argument(
        "--run-log",
        default=None,
        help="append JSONL progress telemetry to this file",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print live completed/failed/cached counters to stderr",
    )


def _runner_kwargs(args: argparse.Namespace) -> dict:
    """Map the common CLI flags onto run_many/replicate keyword args."""
    from repro.experiments.runlog import stderr_runlog

    cache_dir = args.cache_dir
    if cache_dir is None and args.resume:
        cache_dir = DEFAULT_CACHE_DIR
    kwargs = {
        "cache": cache_dir,
        "timeout": args.timeout,
        "retries": args.retries,
        "schedule": getattr(args, "schedule", "cost"),
    }
    if args.run_log or args.progress:
        kwargs["run_log"] = stderr_runlog(path=args.run_log, progress=args.progress)
    return kwargs


def _add_workload(parser: argparse.ArgumentParser) -> None:
    """Closed-loop application-workload flags (see repro.apps)."""
    group = parser.add_argument_group("application workload")
    group.add_argument(
        "--workload",
        choices=list(WORKLOADS),
        default="open",
        help="application model: open-loop sources (default) or a "
        "closed-loop rpc/bsp/bulk job",
    )
    group.add_argument(
        "--rpc-request-packets", type=int, default=None, help="request size, packets"
    )
    group.add_argument(
        "--rpc-response-packets",
        type=int,
        default=None,
        help="modeled response size, packets",
    )
    group.add_argument(
        "--rpc-think", type=float, default=None, help="mean think time, s"
    )
    group.add_argument(
        "--rpc-outstanding",
        type=int,
        default=None,
        help="concurrent requests per client",
    )
    group.add_argument(
        "--bsp-shuffle-packets",
        type=int,
        default=None,
        help="shuffle volume per worker per superstep, packets",
    )
    group.add_argument(
        "--bsp-compute", type=float, default=None, help="mean compute time, s"
    )
    group.add_argument(
        "--bulk-job-packets", type=int, default=None, help="job size, packets"
    )
    group.add_argument(
        "--bulk-job-gap", type=float, default=None, help="mean gap between jobs, s"
    )
    group.add_argument(
        "--workload-timeout",
        type=_positive_float,
        default=None,
        help="abandon work units undelivered after this many seconds",
    )


def _workload_overrides(args: argparse.Namespace) -> dict:
    """Map the workload CLI flags onto ScenarioConfig fields."""
    mapping = {
        "workload": "workload",
        "rpc_request_packets": "rpc_request_packets",
        "rpc_response_packets": "rpc_response_packets",
        "rpc_think": "rpc_think_time",
        "rpc_outstanding": "rpc_outstanding",
        "bsp_shuffle_packets": "bsp_shuffle_packets",
        "bsp_compute": "bsp_compute_time",
        "bulk_job_packets": "bulk_job_packets",
        "bulk_job_gap": "bulk_job_gap",
        "workload_timeout": "workload_timeout",
    }
    overrides = {}
    for arg_name, field in mapping.items():
        value = getattr(args, arg_name, None)
        if value is not None and value != "open":
            overrides[field] = value
    return overrides


def _base_config(args: argparse.Namespace):
    overrides = {}
    if args.duration is not None:
        overrides["duration"] = args.duration
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "engine", None) is not None:
        overrides["engine"] = args.engine
    if getattr(args, "backend", None) is not None:
        overrides["backend"] = args.backend
    if getattr(args, "hybrid_foreground", None) is not None:
        overrides["hybrid_foreground_flows"] = args.hybrid_foreground
    if getattr(args, "hybrid_background", None) is not None:
        overrides["hybrid_background_flows"] = args.hybrid_background
    if getattr(args, "hybrid_coupling_dt", None) is not None:
        overrides["hybrid_coupling_dt"] = args.hybrid_coupling_dt
    overrides.update(_workload_overrides(args))
    return paper_config(**overrides)


def _emit_figure(figure: FigureData, args: argparse.Namespace) -> None:
    print(figure.render_plot())
    print()
    print(figure.render_table())
    if args.csv:
        results_to_csv(figure.to_rows(), args.csv)
        print(f"\nwrote {args.csv}")
    if args.json:
        results_to_json(figure.series, args.json)
        print(f"\nwrote {args.json}")


def _cmd_table1(args: argparse.Namespace) -> int:
    print(
        format_table(
            ["Parameter", "Value"],
            table1_rows(),
            title="Table 1: Simulation Parameters (reconstructed; see DESIGN.md)",
        )
    )
    return 0


def _trace_spec(value: str) -> tuple:
    try:
        return parse_trace_spec(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_obs(parser: argparse.ArgumentParser) -> None:
    """Flight-recorder flags (see repro.obs)."""
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        type=_trace_spec,
        default=(),
        metavar="CATS",
        help="trace categories to record, comma-separated "
        "(cwnd,rtt,state,queue,drops or 'all')",
    )
    group.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="export the flight-recorder bundle (traces + engine "
        "profile) into this directory; implies engine profiling",
    )
    group.add_argument(
        "--obs-format",
        choices=["jsonl", "csv"],
        default="jsonl",
        help="series export format (default jsonl)",
    )
    group.add_argument(
        "--trace-file",
        default=None,
        metavar="PATH",
        help="write an ns-2-format packet trace of the bottleneck queue",
    )
    group.add_argument(
        "--forensics",
        action="store_true",
        help="run burst forensics (episode segmentation, top-k flow "
        "attribution, loss-sync linkage) and print the report",
    )
    group.add_argument(
        "--forensics-stream",
        default=None,
        metavar="PATH",
        help="stream forensics records (windows, sync events, burst "
        "attributions) to this JSONL file as the run progresses; "
        "implies --forensics",
    )
    group.add_argument(
        "--forensics-stream-interval",
        type=_positive_float,
        default=1.0,
        metavar="SECONDS",
        help="sim-time checkpoint interval between stream flushes "
        "(default 1.0)",
    )


def _engine_line(config, result, traced: bool = False) -> str:
    """Which flow engine the numbers came from, and why."""
    if not result.engine:
        return f"engine: none (the {config.backend} backend has no flows)"
    if config.engine is not None:
        why = "forced by --engine"
    elif result.engine == config.resolved_engine():
        why = f"default: {config.batch_envelope_violation() or 'inside the batch envelope'}"
    elif traced:
        why = "attachments need the per-hop events; --trace-file is object-only"
    else:
        why = "fallback: the batch engine met a case it does not reproduce"
    return f"engine: {result.engine} ({why})"


def _run_attached(scenario_cls, config, args):
    """Build ``scenario_cls(config)``, attach what ``args`` asks for --
    the ns-2 trace writer, the forensics stream, each (re)starting its
    file -- and run it: ``(result, trace writer, stream)``."""
    scenario = scenario_cls(config)
    stream_path = getattr(args, "forensics_stream", None)
    writer = stream = None
    with contextlib.ExitStack() as files:
        if args.trace_file:
            from repro.net.tracefile import NsTraceWriter

            handle = files.enter_context(open(args.trace_file, "w", encoding="utf-8"))
            writer = NsTraceWriter(handle).attach(
                scenario.network.bottleneck_interface
            )
        if stream_path:
            handle = files.enter_context(open(stream_path, "w", encoding="utf-8"))
            stream = scenario.attach_forensics_stream(
                handle, interval=args.forensics_stream_interval
            )
        return scenario.run(), writer, stream


def _cmd_run(args: argparse.Namespace) -> int:
    stream_path = getattr(args, "forensics_stream", None)
    config = _base_config(args).with_(
        protocol=args.protocol,
        queue=args.queue,
        n_clients=args.clients,
        obs_trace=tuple(args.trace),
        obs_profile=bool(args.obs_dir),
        forensics=bool(getattr(args, "forensics", False)) or bool(stream_path),
    )
    stream = writer = None
    if args.trace_file and config.engine == "batch":
        print(
            "error: --trace-file requires the object engine (the batch "
            "engine fuses the bottleneck interface's per-hop events away); "
            "drop --engine batch to record an ns-2 trace",
            file=sys.stderr,
        )
        return 2
    if args.obs_dir or args.trace_file or stream_path:
        # Build the scenario by hand so pre-run attachments (the ns
        # tracefile writer, the forensics stream) and post-run exports
        # can reach inside it.  The engine is the one run_scenario
        # would pick, with the same fallback -- except that an ns-2
        # trace needs the bottleneck interface's per-hop events, which
        # only the object engine has.
        from repro.engine.batch import BatchGuardError, BatchScenario

        scenario_cls = Scenario
        if not args.trace_file and config.resolved_engine() == "batch":
            scenario_cls = BatchScenario
        try:
            result, writer, stream = _run_attached(scenario_cls, config, args)
        except BatchGuardError:
            if config.engine is not None:
                raise
            result, writer, stream = _run_attached(Scenario, config, args)
    else:
        result = run_scenario(config)
    metrics = ScenarioMetrics.from_result(result)
    print(metrics_table([metrics], title=f"Scenario: {config.label}, {config.n_clients} clients"))
    print(_engine_line(config, result, traced=bool(args.trace_file)))
    if result.modulation is not None:
        print()
        print(result.modulation.describe())
    if result.app is not None:
        print()
        print(result.app.describe())
    if result.forensics is not None:
        print()
        print(result.forensics.render())
    if args.trace_file:
        print(f"\nwrote {args.trace_file} ({writer.lines_written} trace lines)")
    if stream is not None:
        print(
            f"\nwrote {stream_path} "
            f"({stream.records_written} forensics stream records)"
        )
    if args.obs_dir and result.obs is not None:
        for path in result.obs.export(args.obs_dir, fmt=args.obs_format):
            print(f"wrote {path}")
        if result.obs.engine is not None:
            print()
            print(result.obs.engine.render_table())
    if args.json:
        results_to_json(metrics.as_dict(), args.json)
        print(f"\nwrote {args.json}")
    if args.csv:
        results_to_csv([metrics.as_dict()], args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one scenario under the engine profiler and print the profile."""
    config = _base_config(args).with_(
        protocol=args.protocol,
        queue=args.queue,
        n_clients=args.clients,
        obs_profile=True,
    )
    result = run_scenario(config)
    profile = result.obs.engine if result.obs is not None else None
    assert profile is not None  # obs_profile=True guarantees it
    print(
        f"Scenario: {config.label}, {config.n_clients} clients, "
        f"{config.duration:g}s simulated"
    )
    print(_engine_line(config, result))
    print(profile.render_table())
    if args.json:
        payload = profile.as_dict()
        payload["wall_time_total"] = result.wall_time
        payload["peak_rss_kb"] = result.peak_rss_kb
        results_to_json(payload, args.json)
        print(f"\nwrote {args.json}")
    return 0


def _cmd_forensics_sweep(args: argparse.Namespace) -> int:
    """The forensics grid: burst rate and sync linkage vs N per
    protocol x AQM, next to Figure 2's c.o.v. curve."""
    # Match run_forensics_sweep's no-base default: a widened buffer so
    # RED's early-drop region has headroom over its thresholds.
    base = _base_config(args).with_(buffer_capacity=100)
    sweep = run_forensics_sweep(
        args.sweep,
        base=base,
        processes=args.processes,
        **_runner_kwargs(args),
    )
    rate_figure = figure_forensics_sweep(sweep, "forensic_burst_rate")
    linked_figure = figure_forensics_sweep(
        sweep, "forensic_sync_linked_fraction"
    )
    cov_figure = figure2_cov(sweep, base)
    for figure in (rate_figure, linked_figure, cov_figure):
        print(figure.render_plot())
        print()
        print(figure.render_table())
        print()
    if args.json:
        results_to_json(
            {
                "burst_rate": rate_figure.series,
                "sync_linked_fraction": linked_figure.series,
                "cov": cov_figure.series,
            },
            args.json,
        )
        print(f"wrote {args.json}")
    if args.csv:
        rows = [m.as_dict() for metrics in sweep.values() for m in metrics]
        results_to_csv(rows, args.csv)
        print(f"wrote {args.csv}")
    return 0


def _cmd_forensics(args: argparse.Namespace) -> int:
    """Run one scenario under burst forensics and print the report."""
    if args.sweep is not None:
        return _cmd_forensics_sweep(args)
    overrides = {"forensics": True}
    if args.top is not None:
        overrides["forensics_top_k"] = args.top
    if args.window is not None:
        overrides["forensics_window"] = args.window
    if args.sketch is not None:
        overrides["forensics_sketch_capacity"] = args.sketch
    config = _base_config(args).with_(
        protocol=args.protocol,
        queue=args.queue,
        n_clients=args.clients,
        **overrides,
    )
    result = run_scenario(config)
    report = result.forensics
    assert report is not None  # forensics=True guarantees it
    print(
        f"Scenario: {config.label}, {config.n_clients} clients, "
        f"{config.duration:g}s simulated"
    )
    print()
    print(report.render())
    figure = figure_burst_attribution(report)
    if figure.series:
        print()
        print(figure.render_plot())
    if args.obs_dir and result.obs is not None:
        for path in result.obs.export(args.obs_dir, fmt=args.obs_format):
            print(f"wrote {path}")
    if args.json:
        results_to_json(report.as_dict(), args.json)
        print(f"\nwrote {args.json}")
    if args.csv:
        results_to_csv(figure.to_rows(), args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def _cmd_sweeplog(args: argparse.Namespace) -> int:
    """Summarize a sweep's JSONL run log: makespan, worker utilization,
    per-worker load, respawns, and the slowest cells."""
    from repro.experiments.runlog import (
        follow_runlog,
        read_runlog,
        render_runlog_summary,
        summarize_runlog,
    )

    if args.follow:
        follow_runlog(
            args.path,
            interval=args.interval,
            max_updates=args.max_updates,
        )
        return 0

    events = read_runlog(args.path)
    if not events:
        print(f"no events in {args.path}")
        return 1
    print(render_runlog_summary(events))
    if args.json:
        summary = summarize_runlog(events)
        summary["per_worker"] = {
            str(worker): stats for worker, stats in summary["per_worker"].items()
        }
        results_to_json(summary, args.json)
        print(f"\nwrote {args.json}")
    return 0


def _cmd_sweep_figure(args: argparse.Namespace) -> int:
    base = _base_config(args)
    sweep = run_protocol_sweep(
        args.clients, base=base, processes=args.processes, **_runner_kwargs(args)
    )
    builders = {
        "fig2": lambda: figure2_cov(sweep, base),
        "fig3": lambda: figure3_throughput(sweep),
        "fig4": lambda: figure4_loss(sweep),
        "fig13": lambda: figure13_timeout_ratio(sweep),
    }
    _emit_figure(builders[args.command](), args)
    return 0


def _cmd_largen(args: argparse.Namespace) -> int:
    """The large-N c.o.v. sweep (Figure 2 out to N=500)."""
    base = _base_config(args)
    sweep = run_largen_sweep(
        args.clients,
        base=base,
        processes=args.processes,
        **_runner_kwargs(args),
    )
    _emit_figure(figure_largen_cov(sweep, base), args)
    return 0


def _cmd_fluid(args: argparse.Namespace) -> int:
    """The mean-field c.o.v. sweep (Figure 2 out to N=10^6)."""
    base = _base_config(args)
    sweep = run_fluid_sweep(
        args.clients,
        base=base,
        processes=args.processes,
        **_runner_kwargs(args),
    )
    _emit_figure(figure_fluid_cov(sweep, base), args)
    return 0


def _cmd_hybrid(args: argparse.Namespace) -> int:
    """The hybrid c.o.v. sweep: K packet-exact foreground flows against
    ambient fluid backgrounds out to N=10^6, plus the per-flow
    throughput/drop analogues of Figures 3 and 4."""
    base = _base_config(args)
    foreground = args.hybrid_foreground or base.hybrid_foreground_flows
    sweep = run_hybrid_sweep(
        args.clients,
        base=base,
        foreground=foreground,
        processes=args.processes,
        **_runner_kwargs(args),
    )
    _emit_figure(figure_hybrid_cov(sweep, base, foreground=foreground), args)
    for figure in (
        figure3_throughput_per_flow(sweep),
        figure4_drops_per_flow(sweep),
    ):
        print()
        print(figure.render_plot())
        print()
        print(figure.render_table())
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    """Regenerate every sweep-derived paper artifact into a directory."""
    import os

    os.makedirs(args.outdir, exist_ok=True)
    base = _base_config(args)

    with open(os.path.join(args.outdir, "table1.txt"), "w") as handle:
        handle.write(
            format_table(
                ["Parameter", "Value"],
                table1_rows(),
                title="Table 1: Simulation Parameters (reconstructed)",
            )
            + "\n"
        )

    print(f"running the protocol sweep over clients={args.clients} ...")
    sweep = run_protocol_sweep(
        args.clients, base=base, processes=args.processes, **_runner_kwargs(args)
    )
    figures = {
        "fig02_cov": figure2_cov(sweep, base),
        "fig03_throughput": figure3_throughput(sweep),
        "fig04_loss": figure4_loss(sweep),
        "fig13_timeout_ratio": figure13_timeout_ratio(sweep),
    }
    for name, figure in figures.items():
        results_to_csv(figure.to_rows(), os.path.join(args.outdir, f"{name}.csv"))
        with open(os.path.join(args.outdir, f"{name}.txt"), "w") as handle:
            handle.write(figure.render_plot() + "\n\n" + figure.render_table() + "\n")
        print(f"wrote {name}.csv / {name}.txt")
    all_metrics = [m.as_dict() for metrics in sweep.values() for m in metrics]
    results_to_csv(all_metrics, os.path.join(args.outdir, "sweep_metrics.csv"))
    print(f"wrote sweep_metrics.csv ({len(all_metrics)} rows) to {args.outdir}")
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    config = _base_config(args).with_(
        protocol=args.protocol, queue=args.queue, n_clients=args.clients
    )
    result = replicate(
        config,
        n_replicas=args.replicas,
        base_seed=args.seed if args.seed is not None else 1,
        processes=args.processes,
        **_runner_kwargs(args),
    )
    print(result.render_table())
    if args.json:
        results_to_json(
            {name: s.values for name, s in result.summaries.items()}, args.json
        )
        print(f"\nwrote {args.json}")
    if args.csv:
        results_to_csv([m.as_dict() for m in result.replicas], args.csv)
        print(f"\nwrote {args.csv}")
    return 0


def _cmd_dependence(args: argparse.Namespace) -> int:
    config = _base_config(args).with_(
        protocol=args.protocol,
        queue=args.queue,
        n_clients=args.clients,
        record_flow_arrivals=True,
    )
    result = run_scenario(config)
    report = result.dependence()
    print(
        f"{config.label}, {config.n_clients} clients, {config.duration:g}s:"
    )
    if report is None:
        print("(not enough flows with traffic to analyze)")
        return 1
    print(report.describe())
    print(f"aggregate c.o.v. = {result.cov:.4f} "
          f"(analytic Poisson {result.analytic_cov:.4f})")
    if args.json:
        results_to_json(report, args.json)
        print(f"\nwrote {args.json}")
    return 0


def _cmd_cwnd(args: argparse.Namespace) -> int:
    base = _base_config(args)
    result = cwnd_trace_experiment(
        args.protocol,
        args.clients,
        base=base,
        queue=args.queue,
    )
    for flow_id, trace in sorted(result.cwnd_traces.items()):
        print(
            ascii_step_plot(
                trace,
                t_start=0.0,
                t_end=result.config.duration,
                title=(
                    f"cwnd of client {flow_id} "
                    f"({result.config.label}, {args.clients} clients)"
                ),
            )
        )
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The full argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-tcp",
        description="Reproduce the ICDCS 2000 TCP-burstiness experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the Table 1 parameters")

    run_parser = sub.add_parser("run", help="run one scenario")
    run_parser.add_argument("--protocol", default="reno")
    run_parser.add_argument("--queue", default="fifo")
    run_parser.add_argument("--clients", type=int, default=20)
    _add_common(run_parser)
    _add_workload(run_parser)
    _add_obs(run_parser)

    profile_parser = sub.add_parser(
        "profile", help="profile the event engine over one scenario"
    )
    profile_parser.add_argument("--protocol", default="reno")
    profile_parser.add_argument("--queue", default="fifo")
    profile_parser.add_argument("--clients", type=int, default=20)
    _add_common(profile_parser)
    _add_workload(profile_parser)

    for name, help_text in [
        ("fig2", "c.o.v. vs clients (Figure 2)"),
        ("fig3", "throughput vs clients (Figure 3)"),
        ("fig4", "loss percentage vs clients (Figure 4)"),
        ("fig13", "timeout/dupACK ratio vs clients (Figure 13)"),
    ]:
        figure_parser = sub.add_parser(name, help=help_text)
        figure_parser.add_argument(
            "--clients",
            type=parse_range,
            default=list(range(4, 61, 8)),
            help="client counts, as start:stop:step or a comma list",
        )
        _add_common(figure_parser)

    largen_parser = sub.add_parser(
        "largen",
        help="large-N c.o.v. sweep out to N=500 (timer-wheel fast path)",
    )
    largen_parser.add_argument(
        "--clients",
        type=parse_range,
        default=list(LARGEN_CLIENT_COUNTS),
        help="client counts, as start:stop:step or a comma list",
    )
    _add_common(largen_parser)

    fluid_parser = sub.add_parser(
        "fluid",
        help="mean-field c.o.v. sweep out to N=1e6 (fluid backend)",
    )
    fluid_parser.add_argument(
        "--clients",
        type=parse_range,
        default=list(FLUID_CLIENT_COUNTS),
        help="client counts, as start:stop:step or a comma list",
    )
    _add_common(fluid_parser)

    hybrid_parser = sub.add_parser(
        "hybrid",
        help="hybrid c.o.v. sweep: packet-exact foreground flows "
        "against fluid ambient load out to N=1e6",
    )
    hybrid_parser.add_argument(
        "--clients",
        type=parse_range,
        default=list(HYBRID_CLIENT_COUNTS),
        help="ambient client counts, as start:stop:step or a comma list",
    )
    _add_common(hybrid_parser)

    cwnd_parser = sub.add_parser("cwnd", help="congestion-window traces (Figures 5-12)")
    cwnd_parser.add_argument("--protocol", default="reno")
    cwnd_parser.add_argument("--queue", default="fifo")
    cwnd_parser.add_argument("--clients", type=int, default=20)
    _add_common(cwnd_parser)

    all_parser = sub.add_parser(
        "all", help="regenerate Table 1 and Figures 2/3/4/13 into a directory"
    )
    all_parser.add_argument("--outdir", default="results")
    all_parser.add_argument(
        "--clients",
        type=parse_range,
        default=list(range(4, 61, 8)),
        help="client counts, as start:stop:step or a comma list",
    )
    _add_common(all_parser)

    replicate_parser = sub.add_parser(
        "replicate", help="run one scenario under several seeds (mean +/- CI)"
    )
    replicate_parser.add_argument("--protocol", default="reno")
    replicate_parser.add_argument("--queue", default="fifo")
    replicate_parser.add_argument("--clients", type=int, default=40)
    replicate_parser.add_argument("--replicas", type=int, default=5)
    _add_common(replicate_parser)
    _add_workload(replicate_parser)

    dependence_parser = sub.add_parser(
        "dependence", help="cross-stream dependence diagnostics at the gateway"
    )
    dependence_parser.add_argument("--protocol", default="reno")
    dependence_parser.add_argument("--queue", default="fifo")
    dependence_parser.add_argument("--clients", type=int, default=40)
    _add_common(dependence_parser)

    forensics_parser = sub.add_parser(
        "forensics",
        help="burst forensics: episode segmentation, top-k flow "
        "attribution, loss-synchronization linkage",
    )
    forensics_parser.add_argument("--protocol", default="reno")
    forensics_parser.add_argument("--queue", default="fifo")
    forensics_parser.add_argument("--clients", type=int, default=40)
    forensics_parser.add_argument(
        "--top",
        type=int,
        default=None,
        help="culprits ranked per burst (default 5)",
    )
    forensics_parser.add_argument(
        "--window",
        type=float,
        default=None,
        help="attribution window width, s (default: one round-trip "
        "propagation delay)",
    )
    forensics_parser.add_argument(
        "--sketch",
        type=int,
        default=None,
        help="space-saving counters per window (default: 4 x top-k)",
    )
    forensics_parser.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="export the forensic series + report into this directory",
    )
    forensics_parser.add_argument(
        "--obs-format",
        choices=["jsonl", "csv"],
        default="jsonl",
        help="series export format (default jsonl)",
    )
    forensics_parser.add_argument(
        "--sweep",
        type=parse_range,
        default=None,
        nargs="?",
        const=list(FORENSICS_CLIENT_COUNTS),
        metavar="CLIENTS",
        help="sweep mode: run the forensics grid (reno/vegas x "
        "fifo/red) over these client counts (start:stop:step or a "
        "comma list; default "
        + ",".join(str(n) for n in FORENSICS_CLIENT_COUNTS)
        + ") and plot burst rate / sync linkage / c.o.v. vs N",
    )
    _add_common(forensics_parser)

    sweeplog_parser = sub.add_parser(
        "sweeplog",
        help="summarize a sweep run log (makespan, worker utilization)",
    )
    sweeplog_parser.add_argument("path", help="JSONL run log (--run-log output)")
    sweeplog_parser.add_argument(
        "--json", default=None, help="write the summary as JSON"
    )
    sweeplog_parser.add_argument(
        "--follow",
        action="store_true",
        help="live dashboard: tail the run log while the sweep runs "
        "(multi-line refresh on a TTY, one status line per update "
        "otherwise); exits when the log's sweep_end arrives",
    )
    sweeplog_parser.add_argument(
        "--interval",
        type=_positive_float,
        default=1.0,
        help="--follow poll interval, seconds (default 1.0)",
    )
    sweeplog_parser.add_argument(
        "--max-updates",
        type=_non_negative_int,
        default=None,
        help="--follow: stop after this many updates (for smoke tests "
        "on logs with no sweep_end)",
    )

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "table1": _cmd_table1,
        "run": _cmd_run,
        "profile": _cmd_profile,
        "fig2": _cmd_sweep_figure,
        "fig3": _cmd_sweep_figure,
        "fig4": _cmd_sweep_figure,
        "fig13": _cmd_sweep_figure,
        "largen": _cmd_largen,
        "fluid": _cmd_fluid,
        "hybrid": _cmd_hybrid,
        "cwnd": _cmd_cwnd,
        "all": _cmd_all,
        "replicate": _cmd_replicate,
        "dependence": _cmd_dependence,
        "forensics": _cmd_forensics,
        "sweeplog": _cmd_sweeplog,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
