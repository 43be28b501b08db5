"""The ``repro-tcp`` command-line tool.

Subcommands regenerate each paper artifact from the terminal::

    repro-tcp table1
    repro-tcp run --protocol reno --queue red --clients 40
    repro-tcp fig2 --clients 4:60:8 --duration 50
    repro-tcp fig3 / fig4 / fig13
    repro-tcp cwnd --protocol vegas --clients 30
    repro-tcp claims --duration 200 --replicas 5   # EXPERIMENTS.md's tables

The sweep subcommands (``fig2`` ... ``fig13``, ``all``, ``largen``,
``fluid``, ``hybrid``, ``forensics --sweep``) are the rows of
``repro.experiments.figures.SWEEPS``: one parser loop and one handler
(:func:`_cmd_sweep`) serve them all, so a new sweep is a row there and
no code here.  Likewise every flag that sets a ``ScenarioConfig`` field
is a row of :data:`_CONFIG_FLAGS`, which builds both the parsers and
the base config; a new knob is a row.

A subcommand takes only the flags its handler reads; any other is a
usage error (exit 2), and so is a value ``ScenarioConfig.validate``
refuses in any config the subcommand would run, checked before it runs
any.  The runner flags -- ``--jobs/-j`` (worker
count; cells launch largest first), ``--cache-dir`` /
``--resume`` (content-addressed result cache; interrupted sweeps pick
up where they stopped), ``--timeout`` / ``--retries`` (kill and retry
hung or crashed workers), and ``--run-log`` / ``--progress`` (JSONL
telemetry / live counters) -- belong to the sweep subcommands, ``all``,
``replicate``, ``claims`` and ``forensics`` (read under ``--sweep``).
``--csv PATH`` / ``--json PATH`` persist results where the handler
writes them: ``run``, ``replicate``, ``claims``, ``forensics`` and the
sweeps other than ``all`` (which writes into ``--outdir``) take both,
``profile``, ``dependence`` and ``sweeplog`` take ``--json``, ``cwnd``
neither.  ``repro-tcp sweeplog RUN.jsonl`` folds a run log back into a
makespan / worker-utilization report.

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
from repro.experiments.config import (
    BACKENDS,
    BATCH_ENVELOPE,
    UNREAD_FIELDS,
    WORKLOADS,
    paper_config,
    table1_rows,
)
from repro.experiments.figures import (
    FIGURES,
    SWEEPS,
    FigureData,
    SweepSpec,
    build_figure,
    cwnd_trace_experiment,
    default_traced_flows,
    figure_burst_attribution,
    protocol_grid,
    run_spec,
)
from repro.experiments.replication import replicate
from repro.experiments.results import ScenarioMetrics, metrics_table
from repro.experiments.scenario import run_scenario
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
    if not parsed > 0:  # NaN too: every comparison with it is False
        raise argparse.ArgumentTypeError("must be positive")
    return parsed


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return parsed


def _non_negative_int(value: str) -> int:
    parsed = int(value)
    if parsed < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return parsed


def _flag(flag: str, field: str, **kwargs) -> tuple:
    """One :data:`_CONFIG_FLAGS` row."""
    return flag, field, kwargs


#: Every flag that sets a :class:`ScenarioConfig` field, said once: per
#: group, rows of (flag, field, ``add_argument`` keywords).  The table
#: builds the parsers (:func:`_add_config_flags`, one call per group a
#: subcommand takes) and the base config (:func:`_base_config`: a flag
#: that was given overrides its field, one that was not leaves the
#: Table 1 default), so a new knob is a row here and nothing else.
_CONFIG_FLAGS = {
    "common": (
        _flag("--duration", "duration", type=float, help="run length, s"),
        _flag("--seed", "seed", type=int, help="root RNG seed"),
        _flag(
            "--backend",
            "backend",
            choices=list(BACKENDS),
            help="scenario solver: the discrete-event packet engine "
            "(default), the mean-field fluid limit (reno/vegas x "
            "fifo/red, cost independent of client count), or the hybrid "
            "co-simulation (K packet-exact foreground flows against the "
            "fluid background)",
        ),
        _flag(
            "--hybrid-foreground",
            "hybrid_foreground_flows",
            type=int,
            metavar="K",
            help="hybrid backend: packet-exact foreground flows (default 10)",
        ),
        _flag(
            "--hybrid-background",
            "hybrid_background_flows",
            type=int,
            metavar="N_BG",
            help="hybrid backend: fluid background flows "
            "(default 0 = the ambient remainder, clients - K)",
        ),
        _flag(
            "--hybrid-coupling-dt",
            "hybrid_coupling_dt",
            type=float,
            metavar="SECONDS",
            help="hybrid backend: fluid/packet coupling interval "
            "(default 0 = every RK4 step)",
        ),
        _flag(
            "--engine",
            "engine",
            choices=["object", "batch"],
            # The envelope in words, from the table that defines it
            # (tests/test_docs.py holds this and the README to it).
            help=(
                "force a flow engine: the per-hop object graph (the "
                "reference) or the batch engine, which runs the same "
                "senders and sinks over fused transport events.  "
                "Default: batch for cells inside its "
                "envelope (protocols {protocols}, workloads {workloads} "
                "with {traffic} open-loop sources, the {backends} backend, "
                "no pacing), where results are identical, and objects for "
                "the rest"
            ).format(**{k: "/".join(v) for k, v in BATCH_ENVELOPE.items() if v}),
        ),
    ),
    # Closed-loop application workloads (see repro.apps).
    "workload": (
        _flag(
            "--workload",
            "workload",
            choices=list(WORKLOADS),
            help="application model: open-loop sources (default) or a "
            "closed-loop rpc/bsp/bulk job",
        ),
        _flag(
            "--rpc-request-packets",
            "rpc_request_packets",
            type=int,
            help="request size, packets",
        ),
        _flag(
            "--rpc-response-packets",
            "rpc_response_packets",
            type=int,
            help="modeled response size, packets",
        ),
        _flag("--rpc-think", "rpc_think_time", type=float, help="mean think time, s"),
        _flag(
            "--rpc-outstanding",
            "rpc_outstanding",
            type=int,
            help="concurrent requests per client",
        ),
        _flag(
            "--bsp-shuffle-packets",
            "bsp_shuffle_packets",
            type=int,
            help="shuffle volume per worker per superstep, packets",
        ),
        _flag(
            "--bsp-compute", "bsp_compute_time", type=float, help="mean compute time, s"
        ),
        _flag(
            "--bulk-job-packets", "bulk_job_packets", type=int, help="job size, packets"
        ),
        _flag(
            "--bulk-job-gap",
            "bulk_job_gap",
            type=float,
            help="mean gap between jobs, s",
        ),
        _flag(
            "--workload-timeout",
            "workload_timeout",
            type=_positive_float,
            help="abandon work units undelivered after this many seconds",
        ),
    ),
    # The burst-forensics observer's knobs (see repro.forensics).
    "forensics": (
        _flag(
            "--top",
            "forensics_top_k",
            type=int,
            help="culprits ranked per burst (default 5)",
        ),
        _flag(
            "--window",
            "forensics_window",
            type=float,
            help="attribution window width, s (default: one round-trip "
            "propagation delay)",
        ),
        _flag(
            "--sketch",
            "forensics_sketch_capacity",
            type=int,
            help="space-saving counters per window (default: 4 x top-k)",
        ),
    ),
}


def _add_config_flags(parser, group: str, skip=()) -> None:
    """Add one group of :data:`_CONFIG_FLAGS` to ``parser`` (a parser
    or one of its argument groups), but none whose field is in ``skip``."""
    for flag, field, kwargs in _CONFIG_FLAGS[group]:
        if field not in skip:
            parser.add_argument(flag, default=None, **kwargs)


def _base_config(args: argparse.Namespace):
    """The Table 1 config under every :data:`_CONFIG_FLAGS` flag that
    the subcommand takes and the user gave."""
    given = vars(args)
    overrides = {}
    for rows in _CONFIG_FLAGS.values():
        for flag, field, _ in rows:
            value = given.get(flag.lstrip("-").replace("-", "_"))
            if value is not None:
                overrides[field] = value
    return paper_config(**overrides)


def _add_scenario(parser: argparse.ArgumentParser, clients: int) -> None:
    """The one-scenario triple: which cell a single-run subcommand runs."""
    parser.add_argument("--protocol", default="reno")
    parser.add_argument("--queue", default="fifo")
    parser.add_argument("--clients", type=int, default=clients)


def _usage_error(args: argparse.Namespace, message: str) -> None:
    """Refuse the command line: ``message`` on stderr, exit 2."""
    print(f"repro-tcp {args.command}: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _refuse_invalid(args: argparse.Namespace, configs) -> None:
    """Validate every config a subcommand will run before it runs any:
    an invalid one is a usage error (exit 2) naming the field."""
    for config in configs:
        try:
            config.validate()
        except ValueError as exc:
            _usage_error(args, str(exc))


def _scenario_config(args: argparse.Namespace, needs: str = "", **extra):
    """:func:`_base_config` at the cell :func:`_add_scenario` named,
    refused unless valid and, if the command ``needs`` per-flow packets
    (for what it names), unless its backend has them."""
    config = _base_config(args).with_(
        protocol=args.protocol, queue=args.queue, n_clients=args.clients, **extra
    )
    _refuse_invalid(args, [config])
    if needs and not config.has_flows:
        _usage_error(
            args, f"backend={config.backend!r} has no per-flow packets, so no {needs}"
        )
    return config


def _add_grid(
    parser: argparse.ArgumentParser, spec: SweepSpec, flag: str = "--clients", **kwargs
) -> None:
    """The client-count axis of a sweep row (its defaults unless given)."""
    kwargs.setdefault("default", list(spec.clients))
    kwargs.setdefault("help", "client counts, as start:stop:step or a comma list")
    parser.add_argument(flag, type=parse_range, **kwargs)


def _add_common(
    parser: argparse.ArgumentParser, *outputs: str, runner: bool = False, skip=()
) -> None:
    """The ``common`` config flags (but those of the fields in ``skip``),
    the ``outputs`` (``--csv``/``--json``) the handler writes and, with
    ``runner``, the flags :func:`_runner_kwargs` reads: no flag the
    handler would ignore."""
    _add_config_flags(parser, "common", skip)
    for flag in outputs:
        parser.add_argument(
            flag, default=None, help=f"write results to {flag[2:].upper()}"
        )
    if not runner:
        return
    parser.add_argument(
        "--processes", type=_positive_int, default=None, help="worker count"
    )
    parser.add_argument(
        "--jobs",
        "-j",
        dest="processes",
        type=_positive_int,
        default=None,
        help="worker count (alias for --processes)",
    )
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
    """Map the runner flags onto run_many/replicate keyword args."""
    from repro.experiments.runlog import stderr_runlog

    cache_dir = args.cache_dir
    if cache_dir is None and args.resume:
        cache_dir = DEFAULT_CACHE_DIR
    kwargs = {
        "cache": cache_dir,
        "timeout": args.timeout,
        "retries": args.retries,
    }
    if args.run_log or args.progress:
        kwargs["run_log"] = stderr_runlog(path=args.run_log, progress=args.progress)
    return kwargs


def _write_csv(rows, path: Optional[str]) -> None:
    """``--csv``: write and say so, if the flag was given."""
    if path:
        results_to_csv(rows, path)
        print(f"\nwrote {path}")


def _write_json(payload, path: Optional[str]) -> None:
    """``--json``: write and say so, if the flag was given."""
    if path:
        results_to_json(payload, path)
        print(f"\nwrote {path}")


def _print_figure(figure: FigureData) -> None:
    print(figure.render_plot())
    print()
    print(figure.render_table())


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
    """Which flow engine the numbers came from, and why: the backend's
    engine rule, else the batch envelope."""
    if not config.has_flows:
        return f"engine: none (the {config.backend} backend has no flows)"
    if "engine" in UNREAD_FIELDS[config.backend]:
        why = f"--engine {config.engine} is a no-op" if config.engine else "default"
        why += f": the {config.backend} backend's foreground flows always run on the object engine"
    elif config.engine is not None:
        why = "forced by --engine"
    elif result.engine == config.resolved_engine():
        why = f"default: {config.batch_envelope_violation() or 'inside the batch envelope'}"
    elif traced:
        why = "attachments need the per-hop events; --trace-file is object-only"
    else:
        why = "fallback: the batch engine met a case it does not reproduce"
    return f"engine: {result.engine} ({why})"


def _cmd_run(args: argparse.Namespace) -> int:
    stream_path = args.forensics_stream
    config = _scenario_config(
        args,
        obs_trace=tuple(args.trace),
        obs_profile=bool(args.obs_dir),
        forensics=args.forensics or bool(stream_path),
        needs="ns-2 trace to write" if args.trace_file else "",
    )
    if args.trace_file and config.engine and config.resolved_engine() == "batch":
        _usage_error(
            args,
            "--trace-file requires the object engine (the batch engine fuses "
            "the bottleneck interface's per-hop events away); drop --engine "
            "batch to record an ns-2 trace",
        )
    stream = writer = None
    with contextlib.ExitStack() as files:

        def attach(scenario) -> None:
            """Open what the flags ask for on a scenario run_scenario
            built.  After a fallback this is the second scenario: the
            abandoned attempt's files are closed first and started over."""
            nonlocal writer, stream
            files.close()
            if args.trace_file:
                from repro.net.tracefile import NsTraceWriter

                handle = files.enter_context(
                    open(args.trace_file, "w", encoding="utf-8")
                )
                writer = NsTraceWriter(handle).attach(
                    scenario.network.bottleneck_queue
                )
            if stream_path:
                handle = files.enter_context(open(stream_path, "w", encoding="utf-8"))
                stream = scenario.attach_forensics_stream(
                    handle, interval=args.forensics_stream_interval
                )

        # An ns-2 trace needs the bottleneck interface's per-hop events,
        # which only the object engine has.
        result = run_scenario(
            config.with_(engine="object") if args.trace_file else config, attach
        )
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
    _write_json(metrics.as_dict(), args.json)
    _write_csv([metrics.as_dict()], args.csv)
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run one scenario under the engine profiler and print the profile."""
    config = _scenario_config(args, obs_profile=True)
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
        _write_json(payload, args.json)
    return 0


def _cmd_forensics(args: argparse.Namespace) -> int:
    """Run one scenario under burst forensics and print the report
    (``--sweep``: the forensics row of the sweep table instead)."""
    if args.sweep is not None:
        return _cmd_sweep(args, args.sweep)
    config = _scenario_config(args, forensics=True)
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
    _write_json(report.as_dict(), args.json)
    _write_csv(figure.to_rows(), args.csv)
    return 0


def _cmd_sweeplog(args: argparse.Namespace) -> int:
    """Summarize a sweep's JSONL run log: makespan, worker utilization,
    per-worker load, respawns, and the slowest cells."""
    from repro.experiments.runlog import (
        follow_runlog,
        read_runlog,
        render_summary,
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
    summary = summarize_runlog(events)
    print(render_summary(summary))
    if args.json:
        summary["per_worker"] = {
            str(worker): stats for worker, stats in summary["per_worker"].items()
        }
        _write_json(summary, args.json)
    return 0


def _run_sweep(args: argparse.Namespace, client_counts: Sequence[int]):
    """Run ``args.spec``'s grid: ``(sweep, its figures in print order)``."""
    pinned = args.spec.overrides.get("backend")
    if pinned and getattr(args, "backend", None) not in (None, pinned):
        _usage_error(
            args,
            f"--backend {args.backend}: the {args.spec.name} sweep runs the "
            f"{pinned} backend only",
        )
    base = _base_config(args)
    grid = protocol_grid(
        client_counts, base.with_(**args.spec.overrides), args.spec.protocols
    )
    _refuse_invalid(args, [config for _, config in grid])
    sweep = run_spec(
        args.spec,
        client_counts,
        base=base,
        processes=args.processes,
        **_runner_kwargs(args),
    )
    figures = [build_figure(FIGURES[name], sweep, base) for name in args.spec.figures]
    return sweep, figures


def _metric_rows(sweep) -> list:
    """Every cell's full metrics record, one CSV row each."""
    return [m.as_dict() for metrics in sweep.values() for m in metrics]


def _cmd_sweep(
    args: argparse.Namespace, client_counts: Optional[Sequence[int]] = None
) -> int:
    """Every sweep subcommand: run the row's grid, print its figures,
    persist what ``--csv``/``--json`` ask for."""
    spec = args.spec
    sweep, figures = _run_sweep(args, client_counts or args.clients)
    _print_figure(figures[0])
    if not spec.export_keys:
        _write_csv(figures[0].to_rows(), args.csv)
        _write_json(figures[0].series, args.json)
    for figure in figures[1:]:
        print()
        _print_figure(figure)
    if spec.export_keys:
        series = [figure.series for figure in figures]
        _write_json(dict(zip(spec.export_keys, series)), args.json)
        _write_csv(_metric_rows(sweep), args.csv)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    """Regenerate every sweep-derived paper artifact into a directory."""
    import os

    print(f"running the protocol sweep over clients={args.clients} ...")
    sweep, figures = _run_sweep(args, args.clients)
    os.makedirs(args.outdir, exist_ok=True)
    with open(os.path.join(args.outdir, "table1.txt"), "w") as handle:
        handle.write(
            format_table(
                ["Parameter", "Value"],
                table1_rows(),
                title="Table 1: Simulation Parameters (reconstructed)",
            )
            + "\n"
        )
    for name, figure in zip(args.spec.figures, figures):
        results_to_csv(figure.to_rows(), os.path.join(args.outdir, f"{name}.csv"))
        with open(os.path.join(args.outdir, f"{name}.txt"), "w") as handle:
            handle.write(figure.render_plot() + "\n\n" + figure.render_table() + "\n")
        print(f"wrote {name}.csv / {name}.txt")
    all_metrics = _metric_rows(sweep)
    results_to_csv(all_metrics, os.path.join(args.outdir, "sweep_metrics.csv"))
    print(f"wrote sweep_metrics.csv ({len(all_metrics)} rows) to {args.outdir}")
    return 0


def _cmd_replicate(args: argparse.Namespace) -> int:
    result = replicate(
        _scenario_config(args),
        n_replicas=args.replicas,
        base_seed=args.seed if args.seed is not None else 1,
        processes=args.processes,
        **_runner_kwargs(args),
    )
    print(result.render_table())
    _write_json({name: s.values for name, s in result.summaries.items()}, args.json)
    _write_csv([m.as_dict() for m in result.replicas], args.csv)
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    """Evaluate the claims table and print EXPERIMENTS.md's verdict
    tables; non-zero when a row fails that is not a known deviation."""
    from repro.experiments.claims import (
        CLAIMS,
        claim_cells,
        evaluate_claims,
        render_claims,
    )

    base = _base_config(args)
    seeds = tuple(base.seed + i for i in range(args.replicas))
    _refuse_invalid(args, claim_cells(CLAIMS.values(), base, seeds).values())
    verdicts = evaluate_claims(
        CLAIMS.values(), base, seeds, processes=args.processes, **_runner_kwargs(args)
    )
    print(
        f"Evaluated at {base.duration:g} simulated seconds per cell under "
        f"seeds {', '.join(map(str, seeds))}.\n"
    )
    print(render_claims(verdicts))
    rows = [
        {
            "id": v.claim.id,
            "verdict": v.verdict,
            "gap": v.gap,
            "spread": v.spread,
            "left": list(v.left),
            "right": list(v.right),
        }
        for v in verdicts.values()
    ]
    _write_json({row["id"]: row for row in rows}, args.json)
    _write_csv(rows, args.csv)
    return int(
        any(v.verdict == "fails" and not v.claim.deviation for v in verdicts.values())
    )


def _cmd_dependence(args: argparse.Namespace) -> int:
    config = _scenario_config(args, needs="cross-stream dependence to measure")
    result = run_scenario(config)
    report = result.dependence()
    print(
        f"{config.label}, {config.n_clients} clients, {config.duration:g}s:"
    )
    if report is None:
        print("(not enough flows or bins to analyze)")
        return 1
    print(report.describe())
    print(f"aggregate c.o.v. = {result.cov:.4f} "
          f"(analytic Poisson {result.analytic_cov:.4f})")
    _write_json(report, args.json)
    return 0


def _cmd_cwnd(args: argparse.Namespace) -> int:
    base = _scenario_config(args, needs="congestion window to trace")
    if base.protocol == "udp":
        _usage_error(args, "protocol='udp' has no congestion window to trace")
    result = cwnd_trace_experiment(base.protocol, base.n_clients, base, base.queue)
    # A hybrid run's packet flows are its K foreground flows.
    flows = default_traced_flows(len(result.per_flow))
    for flow_id, trace in sorted(result.cwnd_traces(flows).items()):
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

    def single_run(
        name: str, func, clients: int, help: str, *outputs: str,
        workload: bool = False, runner: bool = False,
    ):
        """A subcommand that runs one cell (or one cell under seeds)."""
        run_parser = sub.add_parser(name, help=help)
        run_parser.set_defaults(func=func)
        _add_scenario(run_parser, clients)
        _add_common(run_parser, *outputs, runner=runner)
        if workload:
            _add_config_flags(
                run_parser.add_argument_group("application workload"), "workload"
            )
        return run_parser

    sub.add_parser("table1", help="print the Table 1 parameters").set_defaults(
        func=_cmd_table1
    )
    _add_obs(
        single_run(
            "run", _cmd_run, 20, "run one scenario", "--csv", "--json", workload=True
        )
    )
    single_run(
        "profile",
        _cmd_profile,
        20,
        "profile the event engine over one scenario",
        "--json",
        workload=True,
    )
    single_run("cwnd", _cmd_cwnd, 20, "congestion-window traces (Figures 5-12)")
    single_run(
        "replicate",
        _cmd_replicate,
        40,
        "run one scenario under several seeds (mean +/- CI)",
        "--csv",
        "--json",
        workload=True,
        runner=True,
    ).add_argument("--replicas", type=_positive_int, default=5)
    single_run(
        "dependence",
        _cmd_dependence,
        40,
        "cross-stream dependence diagnostics at the gateway",
        "--json",
    )

    # ``forensics`` runs one cell; its ``--sweep`` mode is a row of the
    # sweep table, which lends it the grid default and the figures.
    forensics = SWEEPS["forensics"]
    forensics_parser = single_run(
        forensics.name, _cmd_forensics, 40, forensics.help, "--csv", "--json",
        runner=True,
    )
    forensics_parser.set_defaults(spec=forensics)
    _add_config_flags(forensics_parser, "forensics")
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
    _add_grid(
        forensics_parser,
        forensics,
        "--sweep",
        default=None,
        nargs="?",
        const=list(forensics.clients),
        metavar="CLIENTS",
        help="sweep mode: run the forensics grid (reno/vegas x "
        "fifo/red) over these client counts (start:stop:step or a "
        "comma list; default "
        + ",".join(str(n) for n in forensics.clients)
        + ") and plot burst rate / sync linkage / c.o.v. vs N",
    )

    # Every other row of the sweep table is a subcommand of its own ...
    for spec in SWEEPS.values():
        if spec.name not in sub.choices:
            sweep_parser = sub.add_parser(spec.name, help=spec.help)
            sweep_parser.set_defaults(func=_cmd_sweep, spec=spec)
            _add_grid(sweep_parser, spec)
            outputs = () if spec.name == "all" else ("--csv", "--json")
            # A row that pins its backend takes no flag that backend never
            # reads (``forensics --sweep`` refuses --backend in _run_sweep).
            pinned = spec.overrides.get("backend")
            skip = ("backend",) + UNREAD_FIELDS[pinned] if pinned else ()
            _add_common(sweep_parser, *outputs, runner=True, skip=skip)
    # ... and ``all`` prints nothing: it writes its figures to files.
    all_parser = sub.choices["all"]
    all_parser.set_defaults(func=_cmd_all)
    all_parser.add_argument("--outdir", default="results")

    claims_parser = sub.add_parser(
        "claims",
        help="evaluate every paper claim (the CLAIMS table) under several "
        "seeds and print EXPERIMENTS.md's verdict tables",
    )
    claims_parser.set_defaults(func=_cmd_claims)
    _add_common(claims_parser, "--csv", "--json", runner=True)
    claims_parser.add_argument("--replicas", type=_positive_int, default=5)

    sweeplog_parser = sub.add_parser(
        "sweeplog",
        help="summarize a sweep run log (makespan, worker utilization)",
    )
    sweeplog_parser.set_defaults(func=_cmd_sweeplog)
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
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
