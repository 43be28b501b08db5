"""Tests for the repro-tcp command-line interface."""

import argparse
import re

import pytest

from repro.engine.batch import BatchTieError
from repro.experiments.cli import build_parser, main, parse_range


class TestParseRange:
    def test_colon_range_inclusive(self):
        assert parse_range("4:12:4") == [4, 8, 12]

    def test_colon_range_default_step(self):
        assert parse_range("1:4") == [1, 2, 3, 4]

    def test_comma_list(self):
        assert parse_range("3,7,20") == [3, 7, 20]

    def test_single_value(self):
        assert parse_range("5") == [5]

    @pytest.mark.parametrize("spec", ["5:1", "1:5:0", "1:2:3:4"])
    def test_invalid(self, spec):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_range(spec)


_RUNNER_FLAGS = (
    ["--processes", "2"],
    ["--jobs", "2"],
    ["-j", "2"],
    ["--cache-dir", "c"],
    ["--resume"],
    ["--timeout", "5"],
    ["--retries", "0"],
    ["--run-log", "l.jsonl"],
    ["--progress"],
)
_CSV, _JSON = ["--csv", "c.csv"], ["--json", "c.json"]
_HYBRID_FLAGS = (
    ["--hybrid-foreground", "5"],
    ["--hybrid-background", "100"],
    ["--hybrid-coupling-dt", "0.1"],
)
#: Flags these subcommands once accepted and ignored: no handler of
#: theirs calls ``_runner_kwargs`` or writes that file, and a sweep row
#: that pins its backend reads neither ``--backend`` nor ``--engine``
#: (nor, on fluid, the hybrid knobs).
_UNREAD_FLAGS = {
    "run": _RUNNER_FLAGS,
    "profile": _RUNNER_FLAGS + (_CSV,),
    "cwnd": _RUNNER_FLAGS + (_CSV, _JSON),
    "dependence": _RUNNER_FLAGS + (_CSV,),
    "all": (_CSV, _JSON),
    "fluid": (["--backend", "packet"], ["--engine", "object"]) + _HYBRID_FLAGS,
    "hybrid": (["--backend", "fluid"], ["--engine", "batch"]),
}


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        for command in ["table1", "run", "fig2", "fig3", "fig4", "fig13", "cwnd"]:
            args = parser.parse_args(
                [command] if command == "table1" else [command]
            )
            assert args.command == command

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.protocol == "reno"
        assert args.queue == "fifo"
        assert args.clients == 20

    def test_fig_clients_parsing(self):
        args = build_parser().parse_args(["fig2", "--clients", "2:6:2"])
        assert args.clients == [2, 4, 6]

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig2", "--timeout"],
            ["run", "--workload-timeout"],
            ["run", "--forensics-stream-interval"],
            ["sweeplog", "x.jsonl", "--interval"],
        ],
    )
    def test_positive_float_flags_refuse_nan(self, argv, capsys):
        """``nan <= 0`` is False: a NaN stream interval once ran to exit
        0 with no mid-run checkpoint, since ``now >= nan`` never holds."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv + ["nan"])
        assert exit_info.value.code == 2
        assert "must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag",
        [
            pytest.param(command, flag, id=f"{command}{flag[0]}")
            for command, flags in _UNREAD_FLAGS.items()
            for flag in flags
        ],
    )
    def test_flag_no_handler_reads_is_a_usage_error(self, command, flag, capsys):
        """Refused up front by name, not parsed and silently dropped."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("backend", ["fluid", "hybrid"])
    def test_forensics_sweep_refuses_another_backend(self, backend, capsys):
        """The forensics row pins the packet engine; its parser is the
        one-cell command's, which does read ``--backend``."""
        with pytest.raises(SystemExit) as exit_info:
            main(["forensics", "--sweep", "20", "--backend", backend])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"--backend {backend}" in captured.err
        assert "packet backend" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["replicate", "claims"])
    def test_zero_replicas_is_a_usage_error(self, command, capsys):
        """Not a ValueError traceback from the replication layer."""
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--replicas", "0"])
        assert exit_info.value.code == 2
        assert "must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["run", "--clients", "2", "--duration", "-1"], "duration"),
            (["fig2", "--clients", "2", "--duration", "-1"], "duration"),
            (
                ["hybrid", "--clients", "50,1000", "--hybrid-foreground", "100"],
                "hybrid_foreground_flows",
            ),
            (["fig2", "--clients", "2", "--jobs", "0"], "--jobs"),
            (["run", "--hybrid-foreground", "5"], "hybrid_foreground_flows"),
            (
                ["fig2", "--clients", "2", "--hybrid-coupling-dt", "0.1"],
                "hybrid_coupling_dt",
            ),
        ],
        ids=[
            "run-duration", "fig2-duration", "hybrid-foreground", "fig2-jobs",
            "run-hybrid-foreground-on-packet", "fig2-hybrid-coupling-dt-on-packet",
        ],
    )
    def test_invalid_value_is_a_usage_error(self, argv, field, capsys):
        """Every config a subcommand would run is validated before any
        runs: no traceback, no grid of error placeholders, no cell
        silently dropped."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert f"repro-tcp {argv[0]}: error: " in captured.err
        assert field in captured.err
        assert captured.out == ""


class TestMain:
    def test_table1_prints_parameters(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "50 packets" in out
        assert "3 Mbps" in out

    def test_run_single_scenario(self, capsys):
        code = main(
            ["run", "--protocol", "udp", "--clients", "2", "--duration", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "UDP" in out

    def test_run_writes_outputs(self, tmp_path, capsys):
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        main(
            [
                "run",
                "--protocol",
                "udp",
                "--clients",
                "2",
                "--duration",
                "3",
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
            ]
        )
        assert csv_path.exists()
        assert json_path.exists()

    def test_fig2_small_sweep(self, capsys, tmp_path):
        csv_path = tmp_path / "fig2.csv"
        code = main(
            [
                "fig2",
                "--clients",
                "2,3",
                "--duration",
                "3",
                "--processes",
                "1",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 2" in out
        assert "Poisson" in out
        assert csv_path.exists()

    def test_cwnd_renders_traces(self, capsys):
        code = main(
            ["cwnd", "--protocol", "reno", "--clients", "3", "--duration", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cwnd of client" in out

    @pytest.mark.parametrize(
        "argv,field",
        [
            (["--protocol", "udp", "--clients", "3"], "protocol"),
            (["--backend", "fluid", "--clients", "30"], "backend"),
            (["--backend", "hybrid", "--clients", "30"], None),
        ],
        ids=["udp", "fluid", "hybrid"],
    )
    def test_cwnd_traces_every_flow_it_names(self, argv, field, capsys):
        """A cell with no window to trace is a usage error naming the
        field; a hybrid cell traces its K=10 foreground flows."""
        argv = ["cwnd", *argv, "--duration", "3"]
        if field is not None:
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert f"error: {field}=" in capsys.readouterr().err
            return
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert re.findall(r"cwnd of client (\d+)", out) == ["0", "5", "9"]

    def test_replicate_summarizes_seeds(self, capsys, tmp_path):
        json_path = tmp_path / "rep.json"
        code = main(
            [
                "replicate",
                "--protocol",
                "udp",
                "--clients",
                "2",
                "--duration",
                "3",
                "--replicas",
                "2",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 replicas" in out
        assert "ci low" in out
        assert json_path.exists()

    def test_all_writes_every_artifact(self, capsys, tmp_path):
        outdir = tmp_path / "results"
        code = main(
            [
                "all",
                "--outdir",
                str(outdir),
                "--clients",
                "2,3",
                "--duration",
                "3",
                "--processes",
                "1",
            ]
        )
        assert code == 0
        names = {p.name for p in outdir.iterdir()}
        assert "table1.txt" in names
        assert "fig02_cov.csv" in names
        assert "fig02_cov.txt" in names
        assert "fig13_timeout_ratio.csv" in names
        assert "sweep_metrics.csv" in names

    def test_dependence_reports_diagnostics(self, capsys):
        code = main(
            ["dependence", "--protocol", "reno", "--clients", "3", "--duration", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "var(sum)/sum(var)" in out
        assert "aggregate c.o.v." in out

    def test_dependence_refuses_a_backend_without_flows(self, capsys):
        """The fluid limit has no per-flow packets to correlate: a usage
        error naming the backend, as ``cwnd`` gives, not a run that ends
        in "not enough flows or bins" (exit 1)."""
        with pytest.raises(SystemExit) as exit_info:
            main(["dependence", "--backend", "fluid", "--clients", "30"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert "backend='fluid'" in captured.err
        assert "no per-flow packets" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("engine", [[], ["--engine", "object"], ["--engine", "batch"]])
    def test_hybrid_engine_line_gives_the_hybrid_reason(self, engine, capsys):
        """The hybrid foreground always runs on the object engine, so
        ``--engine`` forces nothing there and the line says why."""
        argv = ["run", "--backend", "hybrid", "--clients", "40"]
        argv += ["--hybrid-foreground", "3", "--duration", "2", *engine]
        assert main(argv) == 0
        line = next(
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("engine:")
        )
        assert line.startswith("engine: object (")
        assert "hybrid backend's foreground flows always run on the object" in line
        assert "forced by --engine" not in line


class TestRunnerFlags:
    def test_flags_parse(self):
        args = build_parser().parse_args(
            [
                "fig2",
                "--cache-dir", "cachedir",
                "--timeout", "5.5",
                "--retries", "3",
                "--resume",
                "--progress",
                "--run-log", "events.jsonl",
            ]
        )
        assert args.cache_dir == "cachedir"
        assert args.timeout == 5.5
        assert args.retries == 3
        assert args.resume is True
        assert args.progress is True
        assert args.run_log == "events.jsonl"

    def test_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.cache_dir is None
        assert args.timeout is None
        assert args.retries == 1
        assert args.resume is False

    def test_resume_implies_default_cache_dir(self):
        from repro.experiments.cli import DEFAULT_CACHE_DIR, _runner_kwargs

        args = build_parser().parse_args(["fig2", "--resume"])
        assert _runner_kwargs(args)["cache"] == DEFAULT_CACHE_DIR
        args = build_parser().parse_args(["fig2", "--resume", "--cache-dir", "x"])
        assert _runner_kwargs(args)["cache"] == "x"
        args = build_parser().parse_args(["fig2"])
        assert _runner_kwargs(args)["cache"] is None

    def test_fig2_populates_and_reuses_cache(self, capsys, tmp_path):
        cache_dir = tmp_path / "cache"
        log_path = tmp_path / "run.jsonl"
        argv = [
            "fig2",
            "--clients", "2",
            "--duration", "3",
            "--processes", "1",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert len(list(cache_dir.glob("*.json"))) == 6  # one per protocol

        assert main(argv + ["--run-log", str(log_path)]) == 0
        second = capsys.readouterr().out
        assert first == second  # cache hits reproduce the figure exactly

        from repro.experiments.runlog import read_runlog

        events = [e["event"] for e in read_runlog(str(log_path))]
        assert events.count("cache_hit") == 6
        assert "task_start" not in events


class TestObservabilityFlags:
    """The flight-recorder CLI surface: --trace, --obs-dir, --trace-file."""

    def test_trace_spec_parsing(self):
        args = build_parser().parse_args(["run", "--trace", "cwnd,queue"])
        assert args.trace == ("cwnd", "queue")

    def test_trace_all_expands(self):
        args = build_parser().parse_args(["run", "--trace", "all"])
        assert "drops" in args.trace

    def test_trace_unknown_category_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--trace", "bogus"])
        assert "unknown trace categories" in capsys.readouterr().err

    def test_trace_file_round_trip(self, tmp_path, capsys):
        from repro.net.tracefile import read_trace

        trace_path = tmp_path / "run.tr"
        code = main(
            [
                "run",
                "--clients",
                "2",
                "--duration",
                "3",
                "--trace-file",
                str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert str(trace_path) in out
        # No --engine given: this cell's default is batch, which has no
        # per-hop events to trace, so the hand-built path stays object.
        assert "engine: object (attachments" in out
        records = read_trace(str(trace_path))
        assert records  # lines written and parse back cleanly
        ops = {record.op for record in records}
        assert "+" in ops and "-" in ops
        assert all(record.time >= 0 for record in records)

    def test_obs_dir_exports_bundle(self, tmp_path, capsys):
        import json

        obs_dir = tmp_path / "obs"
        code = main(
            [
                "run",
                "--clients",
                "2",
                "--duration",
                "3",
                "--obs-dir",
                str(obs_dir),
                "--trace",
                "cwnd,queue",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert (obs_dir / "flow_cwnd.jsonl").exists()
        assert (obs_dir / "queue_occupancy.jsonl").exists()
        profile = json.loads((obs_dir / "engine_profile.json").read_text())
        assert profile["events_executed"] > 0
        assert "engine profile" in out.lower() or "ev/s" in out

    def test_obs_dir_csv_format(self, tmp_path):
        obs_dir = tmp_path / "obs"
        main(
            [
                "run",
                "--clients",
                "2",
                "--duration",
                "3",
                "--obs-dir",
                str(obs_dir),
                "--obs-format",
                "csv",
                "--trace",
                "cwnd",
            ]
        )
        header = (obs_dir / "flow_cwnd.csv").read_text().splitlines()[0]
        assert header == "flow_id,time,cwnd,ssthresh"

    def test_profile_subcommand(self, capsys):
        code = main(["profile", "--clients", "2", "--duration", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ev/s" in out
        # The engine the dispatcher picked, and its callback categories.
        assert "engine: batch (default: inside the batch envelope)" in out
        assert "BatchScenario._gw_arrival" in out
        main(["profile", "--clients", "2", "--duration", "3", "--engine", "object"])
        out = capsys.readouterr().out
        assert "engine: object (forced by --engine)" in out
        assert "Interface._finish" in out

    def test_profile_json_output(self, tmp_path):
        import json

        json_path = tmp_path / "profile.json"
        code = main(
            [
                "profile",
                "--clients",
                "2",
                "--duration",
                "3",
                "--json",
                str(json_path),
            ]
        )
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["events_executed"] > 0
        assert payload["sim_time"] == 3.0


class TestExecutorFlags:
    """The sweep-executor CLI surface: --jobs."""

    def test_flags_parse(self):
        args = build_parser().parse_args(["fig2", "--jobs", "4"])
        assert args.processes == 4

    def test_jobs_short_flag_aliases_processes(self):
        args = build_parser().parse_args(["fig2", "-j", "2"])
        assert args.processes == 2

    def test_unknown_pool_rejected(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--pool", "threads"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig2", "--pool", "per-task"],
            ["fig2", "--pool", "persistent"],
            ["run", "--scheduler", "heap"],
            ["largen", "--scheduler", "wheel"],
            ["fig2", "--schedule", "fifo"],
            ["replicate", "--schedule", "cost"],
        ],
    )
    def test_deleted_knob_flags_rejected(self, argv, capsys):
        """One pool, one scheduler, one order: the flags that chose are
        gone."""
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_runner_kwargs_carry_executor_knobs(self):
        from repro.experiments.cli import _runner_kwargs

        args = build_parser().parse_args(["fig2", "--retries", "3"])
        kwargs = _runner_kwargs(args)
        assert "pool" not in kwargs and "schedule" not in kwargs
        assert kwargs["retries"] == 3


class TestSweeplog:
    def test_sweeplog_summarizes_run(self, capsys, tmp_path):
        log_path = tmp_path / "run.jsonl"
        assert main(
            [
                "fig2",
                "--clients", "2",
                "--duration", "3",
                "--jobs", "2",
                "--timeout", "60",
                "--run-log", str(log_path),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["sweeplog", str(log_path)]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "utilization" in out
        assert "Per-worker load" in out
        assert "Slowest cells" in out

    def test_sweeplog_json_export(self, capsys, tmp_path):
        import json

        log_path = tmp_path / "run.jsonl"
        json_path = tmp_path / "summary.json"
        assert main(
            [
                "fig2",
                "--clients", "2",
                "--duration", "3",
                "--run-log", str(log_path),
            ]
        ) == 0
        capsys.readouterr()
        code = main(["sweeplog", str(log_path), "--json", str(json_path)])
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["completed"] >= 1
        assert "makespan" in payload

    def test_sweeplog_empty_log_fails(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["sweeplog", str(empty)]) == 1


class TestForensicsStreamFlag:
    def test_run_streams_prefix_consistent_jsonl(self, tmp_path, capsys):
        from repro.experiments.config import paper_config
        from tests.forensics_reference import offline_stream_lines, run_with_reference

        stream_path = tmp_path / "stream.jsonl"
        assert main(
            [
                "run",
                "--clients", "8",
                "--duration", "4",
                "--seed", "3",
                "--forensics-stream", str(stream_path),
                "--forensics-stream-interval", "0.5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "forensics stream records" in out
        _, offline = run_with_reference(
            paper_config(n_clients=8, duration=4.0, seed=3, forensics=True)
        )
        expected = "".join(line + "\n" for line in offline_stream_lines(offline))
        assert stream_path.read_text() == expected

    @pytest.mark.parametrize(
        "protocol,queue",
        [
            pytest.param("reno", "fifo", id="reno"),
            pytest.param("reno_delack", "fifo", id="reno_delack"),
            pytest.param("udp", "fifo", id="udp"),
            pytest.param("vegas", "fifo", id="vegas"),
            # RED keeps the ``avg`` the queue probe records beside the length.
            pytest.param("reno", "red", id="reno-red"),
        ],
    )
    def test_observed_run_takes_the_dispatcher(self, protocol, queue, tmp_path, capsys):
        """``--obs-dir`` / ``--forensics-stream`` no longer mean the
        object engine: an in-envelope cell runs on batch, and every
        file it writes is byte-identical to the forced oracle's (all
        but the engine profile, which is *about* the engine).  Both
        engines publish through the same probes, so this is also what
        holds a probe change that is right for one and wrong for the
        other."""

        def observed(tag, *extra):
            obs_dir, stream = tmp_path / f"obs-{tag}", tmp_path / f"{tag}.jsonl"
            assert main(
                [
                    "run", "--protocol", protocol, "--queue", queue, "--clients", "45",
                    "--duration", "6", "--seed", "3", "--trace", "all",
                    "--obs-dir", str(obs_dir), "--forensics-stream", str(stream),
                    *extra,
                ]
            ) == 0
            files = {
                path.name: path.read_bytes()
                for path in obs_dir.iterdir()
                if path.name != "engine_profile.json"
            }
            files["stream"] = stream.read_bytes()
            return capsys.readouterr().out, files

        out, default = observed("default")
        if protocol == "udp":  # outside the envelope: the default is object
            assert (
                "engine: object (default: the batch engine supports "
                "reno/vegas/reno_delack only; got protocol 'udp')"
            ) in out
            with pytest.raises(SystemExit) as exit_info:
                observed("batch", "--engine", "batch")
            assert exit_info.value.code == 2
            assert "only; got protocol 'udp'" in capsys.readouterr().err
        else:
            assert "engine: batch (default: inside the batch envelope)" in out
            assert "BatchScenario._gw_arrival" in out  # the exported profile
        out, forced = observed("object", "--engine", "object")
        assert "engine: object (forced by --engine)" in out
        assert default.keys() == forced.keys() and len(default) >= 4
        assert default == forced

    def test_observed_run_falls_back_and_restarts_the_stream(
        self, tmp_path, capsys, monkeypatch
    ):
        """A guard trip part-way re-runs the cell on the object engine,
        and the stream file holds that run only."""
        from repro.experiments.config import paper_config
        from tests.test_engine_dispatch import TIE_CELL

        # The dispatch suite's tie cell: no flag reaches a tie at the
        # default rates, so its rates go in under the flags.
        rates = {name: value for name, value in TIE_CELL.items() if name.endswith("_bps")}
        monkeypatch.setattr(
            "repro.experiments.cli.paper_config",
            lambda **given: paper_config(**given, **rates),
        )
        argv = [
            "run", "--workload", TIE_CELL["workload"],
            "--rpc-think", str(TIE_CELL["rpc_think_time"]),
            "--clients", str(TIE_CELL["n_clients"]),
            "--duration", str(TIE_CELL["duration"]),
            "--seed", str(TIE_CELL["seed"]),
            "--forensics-stream-interval", "0.1",
        ]
        streams = {}
        for tag, extra in (("default", []), ("object", ["--engine", "object"])):
            stream = tmp_path / f"{tag}.jsonl"
            assert main(argv + ["--forensics-stream", str(stream)] + extra) == 0
            streams[tag] = (stream.read_bytes(), capsys.readouterr().out)
        assert "engine: object (fallback:" in streams["default"][1]
        assert streams["default"][0] == streams["object"][0] != b""
        with pytest.raises(BatchTieError):
            main(argv + ["--forensics-stream", str(stream), "--engine", "batch"])

    @pytest.mark.parametrize("traced", [False, True], ids=["stream", "trace+stream"])
    def test_forced_fallback_leaves_only_the_object_runs_bytes(
        self, traced, tmp_path, capsys, monkeypatch
    ):
        """The batch attempt streams half a run, then gives up: the
        files a fallback leaves are the direct object run's, with no
        byte of the abandoned attempt.  ``--trace-file`` never makes a
        batch attempt at all (it forces the object engine through the
        config), so nothing is there to abandon."""
        from repro.engine.batch import BatchScenario

        abandoned = []

        def refuse_part_way(scenario):
            scenario.sim.run(until=scenario.config.duration / 2)
            abandoned.append((tmp_path / "default.jsonl").stat().st_size)
            raise BatchTieError("scripted guard trip")

        monkeypatch.setattr(BatchScenario, "_execute", refuse_part_way)
        argv = [
            "run", "--clients", "45", "--duration", "6", "--seed", "3",
            "--forensics-stream-interval", "0.5",
        ]
        files = {}
        for tag, extra in (("default", []), ("object", ["--engine", "object"])):
            stream, trace = tmp_path / f"{tag}.jsonl", tmp_path / f"{tag}.tr"
            flags = ["--forensics-stream", str(stream)]
            if traced:
                flags += ["--trace-file", str(trace)]
            assert main(argv + flags + extra) == 0
            out = capsys.readouterr().out
            files[tag] = (stream.read_bytes(), trace.read_bytes() if traced else b"")
            assert f"wrote {stream}" in out
        assert files["default"] == files["object"]
        assert files["default"][0] != b"" and (files["default"][1] != b"") == traced
        if traced:
            assert abandoned == []
        else:
            # The abandoned attempt had already streamed records.
            assert len(abandoned) == 1 and abandoned[0] > 0

    def test_observed_hybrid_run_is_the_hybrid_run(self, tmp_path, capsys):
        """An attachment does not change which backend runs: the
        hand-rolled dispatch this replaced built a plain packet
        ``Scenario`` of all N clients whenever ``--obs-dir``,
        ``--trace-file`` or ``--forensics-stream`` was given."""
        import json

        argv = [
            "run", "--backend", "hybrid", "--clients", "300",
            "--hybrid-foreground", "3", "--duration", "3",
        ]
        plain, observed = tmp_path / "plain.json", tmp_path / "observed.json"
        assert main(argv + ["--json", str(plain)]) == 0
        assert main(
            argv
            + ["--json", str(observed), "--obs-dir", str(tmp_path / "obs")]
            + ["--trace-file", str(tmp_path / "run.tr")]
            + ["--forensics-stream", str(tmp_path / "stream.jsonl")]
        ) == 0
        assert "engine: object (default:" in capsys.readouterr().out
        plain, observed = (json.loads(p.read_text()) for p in (plain, observed))
        assert plain["measured_flows"] == observed["measured_flows"] == 3
        for name in ("cov", "throughput_packets", "gateway_drops", "perf_events_executed"):
            assert plain[name] == observed[name], name
        assert (tmp_path / "run.tr").read_text()

    def test_stream_implies_forensics(self):
        args = build_parser().parse_args(
            ["run", "--forensics-stream", "x.jsonl"]
        )
        assert args.forensics_stream == "x.jsonl"
        assert args.forensics_stream_interval == 1.0


class TestForensicsSweepFlag:
    def test_sweep_flag_parses_range_and_default(self):
        args = build_parser().parse_args(["forensics", "--sweep", "10,20"])
        assert args.sweep == [10, 20]
        args = build_parser().parse_args(["forensics", "--sweep"])
        assert args.sweep == [20, 40, 60]
        args = build_parser().parse_args(["forensics"])
        assert args.sweep is None

    def test_sweep_prints_figures(self, capsys, tmp_path):
        json_path = tmp_path / "sweep.json"
        assert main(
            [
                "forensics",
                "--sweep", "8,12",
                "--duration", "3",
                "--seed", "3",
                "--processes", "1",
                "--json", str(json_path),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "figF sweep (forensic_burst_rate)" in out
        assert "figF sweep (forensic_sync_linked_fraction)" in out
        assert "coefficient of variation" in out
        import json

        payload = json.loads(json_path.read_text())
        assert set(payload) == {"burst_rate", "sync_linked_fraction", "cov"}


class TestSweeplogFollow:
    def _write_log(self, path):
        import json

        events = [
            {"t": 0.0, "event": "sweep_start", "total": 1, "workers": 1,
             "pool": "persistent", "schedule": "cost"},
            {"t": 1.0, "event": "task_done", "index": 0, "digest": "a",
             "label": "reno N=8", "elapsed": 1.0, "attempt": 1,
             "backend": "packet", "worker": 0, "forensic_bursts": 2,
             "forensic_sync_linked": 1, "forensic_burst_rate": 0.5,
             "forensic_sync_linked_fraction": 0.5},
        ]
        path.write_text(
            "".join(json.dumps(event) + "\n" for event in events)
        )

    def test_follow_non_tty_line_mode(self, capsys, tmp_path):
        log_path = tmp_path / "run.jsonl"
        self._write_log(log_path)
        assert main(
            [
                "sweeplog", str(log_path),
                "--follow", "--interval", "0.01", "--max-updates", "1",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "[1/1]" in out
        assert "bursts=2" in out
        assert "\x1b[" not in out

    def test_follow_flags_parse(self):
        args = build_parser().parse_args(
            ["sweeplog", "x.jsonl", "--follow", "--interval", "2",
             "--max-updates", "5"]
        )
        assert args.follow and args.interval == 2.0 and args.max_updates == 5
        args = build_parser().parse_args(["sweeplog", "x.jsonl"])
        assert not args.follow
