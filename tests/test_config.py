"""Unit tests for scenario configuration (Table 1)."""

import dataclasses
import typing

import pytest

from repro.experiments.config import (
    BACKENDS,
    PROTOCOLS,
    QUEUES,
    TRAFFIC,
    WORKLOADS,
    ScenarioConfig,
    paper_config,
    table1_rows,
)


def test_defaults_are_the_reconstructed_table1():
    config = ScenarioConfig()
    assert config.client_rate_bps == 10e6
    assert config.bottleneck_rate_bps == 3e6
    assert config.buffer_capacity == 50
    assert config.packet_size == 1000
    assert config.mean_gap == 0.1
    assert config.duration == 200.0
    assert config.advertised_window == 20
    assert (config.vegas_alpha, config.vegas_beta, config.vegas_gamma) == (1, 3, 1)
    assert (config.red_min_th, config.red_max_th) == (10.0, 40.0)


def test_rtt_prop_and_bin_width():
    config = ScenarioConfig(client_delay=0.002, bottleneck_delay=0.2)
    assert config.rtt_prop == pytest.approx(0.404)
    assert config.effective_bin_width == pytest.approx(0.404)
    assert config.with_(bin_width=1.0).effective_bin_width == 1.0


def test_derived_load_quantities():
    config = ScenarioConfig()
    assert config.per_client_rate == pytest.approx(10.0)
    assert config.bottleneck_capacity_pps == pytest.approx(375.0)
    assert config.congestion_knee_clients == pytest.approx(37.5)
    assert config.offered_load_bps == pytest.approx(
        config.n_clients * 80_000.0
    )


@pytest.mark.parametrize(
    "protocol,queue,expected",
    [
        ("udp", "fifo", "UDP"),
        ("reno", "fifo", "Reno"),
        ("reno", "red", "Reno/RED"),
        ("vegas", "red", "Vegas/RED"),
        ("reno_delack", "fifo", "Reno/DelayAck"),
        ("vegas", "ared", "Vegas/ARED"),
    ],
)
def test_labels(protocol, queue, expected):
    assert ScenarioConfig(protocol=protocol, queue=queue).label == expected


@pytest.mark.parametrize(
    "overrides",
    [
        dict(protocol="quic"),
        dict(queue="codel"),
        dict(n_clients=0),
        dict(duration=0.0),
        dict(warmup=300.0),
        dict(mean_gap=0.0),
        dict(protocol="reno_ecn", queue="fifo"),
    ],
)
def test_validate_rejects(overrides):
    with pytest.raises(ValueError):
        ScenarioConfig(**overrides).validate()


@pytest.mark.parametrize(
    "field,value,name,choices",
    [
        ("protocol", "quic", "protocol", PROTOCOLS),
        ("queue", "codel", "queue", QUEUES),
        ("traffic", "bursty", "traffic model", TRAFFIC),
        ("workload", "mapreduce", "workload", WORKLOADS),
    ],
)
def test_unknown_choice_names_the_choices(field, value, name, choices):
    """Each enumerated field's error lists what it accepts."""
    with pytest.raises(ValueError) as info:
        ScenarioConfig(**{field: value}).validate()
    assert str(info.value) == f"unknown {name} {value!r}; choose from {choices}"


def _row(number, overrides, field):
    """One row of an ``overrides,field`` table, with its id written out
    (``overrides<number>-<field>``): deleting a row renames no other."""
    return pytest.param(overrides, field, id=f"overrides{number}-{field}")


@pytest.mark.parametrize(
    "overrides,field",
    [
        # Each used to pass validate() and die inside the cell: a bare
        # ZeroDivisionError in the envelope's tie row, a SimulationError
        # part-way through a batch run, "link rates must be positive" /
        # "bin width must be positive" from whichever layer met it first.
        _row(0, dict(bottleneck_rate_bps=0.0), "bottleneck_rate_bps"),
        _row(1, dict(client_rate_bps=-1.0), "client_rate_bps"),
        _row(2, dict(client_delay=-0.001), "client_delay"),
        _row(3, dict(bottleneck_delay=-0.1), "bottleneck_delay"),
        _row(4, dict(bin_width=0.0), "bin_width"),
        _row(5, dict(client_delay=0.0, bottleneck_delay=0.0), "bin_width"),
        _row(6, dict(n_clients=0), "n_clients"),
        _row(7, dict(mean_gap=0.0), "mean_gap"),
        _row(8, dict(packet_size=0), "packet_size"),
        _row(9, dict(workload="rpc", rpc_outstanding=0), "rpc_outstanding"),
        _row(10, dict(workload="bsp", bsp_compute_time=-1.0), "bsp_compute_time"),
    ],
)
def test_validate_names_the_mistyped_numeric_field(overrides, field):
    with pytest.raises(ValueError, match=field):
        ScenarioConfig(**overrides).validate()


_HINTS = typing.get_type_hints(ScenarioConfig)
#: Every numeric field of the config, read off the dataclass itself.
NUMERIC_FIELDS = [
    item.name
    for item in dataclasses.fields(ScenarioConfig)
    if _HINTS[item.name] in (int, float, typing.Optional[float])
]


#: The eleven knobs that are constants at their one reader now (the
#: Pareto on/off source's and DRRQueue's defaults, Scenario._tcp_params'
#: tick and first RTO, ForensicsParams.from_config's fractions; gentle
#: RED is gone).  The
#: validate() tests below keep their rows for them: a config naming one
#: is refused by name before validate() could see its value.
CONSTANT_KNOBS = frozenset(
    {
        "onoff_peak_gap",
        "onoff_mean_on",
        "onoff_mean_off",
        "onoff_shape",
        "tcp_tick",
        "initial_rto",
        "red_gentle",
        "drr_quantum",
        "forensics_burst_enter",
        "forensics_burst_exit",
        "forensics_sync_fraction",
    }
)


def _refused_as_a_constant(overrides, field):
    """For a constant knob, check that a config naming it is refused by
    name at construction and return True; for a live field, False."""
    if field not in CONSTANT_KNOBS:
        return False
    with pytest.raises(TypeError, match=field):
        paper_config(**overrides)
    return True


@pytest.mark.parametrize(
    "field", NUMERIC_FIELDS + sorted(CONSTANT_KNOBS - {"red_gentle"})
)
def test_validate_refuses_nan_by_name(field):
    """NaN passes every comparison-based range check.  Some fields then
    died mid-run ("cannot schedule event at nan"), some ran to the end
    on it, and some were refused by an ``int()`` that named no field."""
    if _refused_as_a_constant({field: float("nan")}, field):
        return
    config = paper_config(**{field: float("nan")})
    with pytest.raises(ValueError, match=f"^{field} must be a number; got nan$"):
        config.validate()
    if _HINTS[field] == typing.Optional[float]:
        config.with_(**{field: None}).validate()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "overrides,field",
    [
        # Each used to fail late or not at all: a SimulationError part-way
        # through a delayed-ACK run; a ValueError out of a queue's
        # constructor on the packet backend after validate() had passed,
        # and a silent run on fluid; cov = nan from an empty window on
        # packet, a number from fluid.
        _row(0, dict(ack_delay=-0.1), "ack_delay"),
        _row(1, dict(buffer_capacity=0), "buffer_capacity"),
        _row(2, dict(queue="red", red_min_th=40.0, red_max_th=40.0), "red_min_th"),
        _row(3, dict(queue="red", red_min_th=-1.0), "red_min_th"),
        _row(4, dict(queue="red", red_max_p=0.0), "red_max_p"),
        _row(5, dict(queue="red", red_max_p=1.5), "red_max_p"),
        _row(6, dict(queue="red", red_weight=0.0), "red_weight"),
        _row(7, dict(duration=0.3), "duration"),
        _row(8, dict(duration=30.0, warmup=29.7), "warmup"),
        _row(9, dict(duration=2.0, bin_width=2.5), "bin_width"),
    ],
)
def test_validate_rejects_on_every_backend_naming_the_field(
    backend, overrides, field, monkeypatch
):
    """...and before anything is built: no Scenario, solver or queue."""
    import repro.experiments.scenario as scenario_module
    from repro.core.fluid_backend import FluidSolver

    def never_built(*args, **kwargs):
        raise AssertionError("built before validate() rejected the config")

    monkeypatch.setattr(scenario_module.Scenario, "_build_network", never_built)
    monkeypatch.setattr(FluidSolver, "__init__", never_built)
    config = paper_config(backend=backend, n_clients=20, **overrides)
    with pytest.raises(ValueError, match=field):
        config.validate()
    with pytest.raises(ValueError, match=field):
        scenario_module.run_scenario(config)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "overrides,field",
    [
        # initial_rto=-1 ran silently (min_rto clamps the first RTO);
        # the others passed validate() and failed inside the cell's
        # TcpParams with messages that named no config field ("timer
        # tick must be positive").
        _row(0, dict(initial_rto=-1.0), "initial_rto"),
        _row(1, dict(tcp_tick=0.0), "tcp_tick"),
        _row(2, dict(min_rto=0.0), "min_rto"),
        _row(3, dict(advertised_window=0), "advertised_window"),
    ],
)
def test_validate_refuses_a_tcp_timer_or_window_field_by_name(
    backend, overrides, field, monkeypatch
):
    import repro.experiments.scenario as scenario_module
    from repro.core.fluid_backend import FluidSolver

    def never_built(*args, **kwargs):
        raise AssertionError("built before validate() rejected the config")

    monkeypatch.setattr(scenario_module.Scenario, "_build_network", never_built)
    monkeypatch.setattr(FluidSolver, "__init__", never_built)
    overrides = dict(overrides, backend=backend, n_clients=20)
    if _refused_as_a_constant(overrides, field):
        return
    config = paper_config(**overrides)
    with pytest.raises(ValueError, match=field):
        config.validate()
    with pytest.raises(ValueError, match=field):
        scenario_module.run_scenario(config)


@pytest.mark.parametrize(
    "overrides,field",
    [
        # A packet cell used to pass validate() and raise inside the
        # sender's or source's or queue's constructor, mid-build; the
        # fluid backend ran alpha > beta silently.
        _row(0, dict(protocol="vegas", vegas_alpha=5.0, vegas_beta=3.0), "vegas_alpha"),
        _row(1, dict(protocol="vegas", vegas_alpha=-1.0), "vegas_alpha"),
        _row(2, dict(protocol="vegas", vegas_gamma=-1.0), "vegas_gamma"),
        _row(3, dict(traffic="pareto_onoff", onoff_shape=1.0), "onoff_shape"),
        _row(4, dict(traffic="pareto_onoff", onoff_mean_on=0.0), "onoff_mean_on"),
        _row(5, dict(traffic="pareto_onoff", onoff_mean_off=-1.0), "onoff_mean_off"),
        _row(6, dict(traffic="pareto_onoff", onoff_peak_gap=0.0), "onoff_peak_gap"),
        _row(7, dict(queue="drr", drr_quantum=0), "drr_quantum"),
    ],
)
def test_validate_refuses_a_protocol_traffic_or_queue_field_by_name(
    overrides, field
):
    if _refused_as_a_constant(overrides, field):
        return
    config = paper_config(**overrides)
    with pytest.raises(ValueError, match=field):
        config.validate()
    # Checked only where it runs: the same value on another protocol,
    # traffic model or queue is inert.
    inert = dict(overrides, protocol="reno", traffic="poisson", queue="fifo")
    paper_config(**inert).validate()


def test_min_rto_above_the_rto_ceiling_is_refused_by_name():
    with pytest.raises(ValueError, match="^min_rto cannot exceed the 64.0-s"):
        paper_config(min_rto=65.0).validate()
    paper_config(min_rto=64.0).validate()


def test_red_thresholds_are_checked_only_where_red_runs():
    ScenarioConfig(queue="fifo", red_min_th=40.0, red_max_th=40.0).validate()
    with pytest.raises(ValueError, match="red_min_th"):
        ScenarioConfig(queue="ared", red_min_th=40.0, red_max_th=40.0).validate()


def test_one_whole_bin_is_enough():
    ScenarioConfig(duration=0.41).validate()  # the default bin is 0.404 s
    with pytest.raises(ValueError, match="no whole bin"):
        ScenarioConfig(duration=0.40).validate()


def test_zero_delays_are_fine_with_an_explicit_bin():
    ScenarioConfig(client_delay=0.0, bottleneck_delay=0.0, bin_width=0.4).validate()


def test_all_declared_protocol_queue_combinations_validate():
    for protocol in PROTOCOLS:
        for queue in QUEUES:
            if protocol == "reno_ecn" and queue == "fifo":
                continue
            ScenarioConfig(protocol=protocol, queue=queue).validate()


def test_with_creates_modified_copy():
    base = ScenarioConfig()
    other = base.with_(n_clients=40, protocol="vegas")
    assert other.n_clients == 40
    assert other.protocol == "vegas"
    assert base.n_clients == 20  # original untouched


def test_paper_config_overrides():
    config = paper_config(duration=10.0, seed=7)
    assert config.duration == 10.0
    assert config.seed == 7


def test_config_is_picklable_dataclass():
    import pickle

    config = ScenarioConfig()
    assert dataclasses.is_dataclass(config)
    assert pickle.loads(pickle.dumps(config)) == config


def test_table1_rows_cover_every_paper_parameter():
    rows = dict(table1_rows())
    assert rows["gateway buffer size (B)"] == "50 packets"
    assert rows["packet size"] == "1000 bytes"
    assert rows["RED max_th"] == "40 packets"
    assert rows["TCP Vegas beta"] == "3"
    assert len(rows) == 14


class TestDigestCompleteness:
    # The only fields allowed to be missing from the content digest:
    # pure observation knobs that can never change a physics-derived
    # ScenarioMetrics value, plus the single-valued ``scheduler`` shim and
    # the ``engine`` knob (bit-identical physics, enforced by
    # tests/test_batch_differential.py).  Anything else added to ScenarioConfig
    # MUST land in the digest automatically, or cached results would
    # silently alias.  (The obs_* knobs do affect the obs_* sample
    # counters, but those are bookkeeping about the recording itself.)
    OBSERVATION_ONLY = {
        "obs_trace",
        "obs_profile",
        "scheduler",
        "engine",
        "forensics",
        "forensics_window",
        "forensics_top_k",
        "forensics_sketch_capacity",
    }

    def test_digest_covers_every_physics_field(self):
        config = ScenarioConfig()
        payload = config.digest_payload()
        field_names = {spec.name for spec in dataclasses.fields(config)}
        # Deleted fields stay in the payload at their old values (floats
        # as the repr strings the payload writes), so digests written
        # before their deletion still match.
        deleted = {
            "record_offered": True,
            "record_flow_arrivals": False,
            "onoff_peak_gap": "0.01",
            "onoff_mean_on": "0.5",
            "onoff_mean_off": "4.5",
            "onoff_shape": "1.5",
            "tcp_tick": "0.5",
            "initial_rto": "3.0",
            "red_gentle": False,
            "drr_quantum": 1000,
        }
        assert {name: payload[name] for name in deleted} == deleted
        covered = set(payload) - {"schema_version", *deleted}
        assert covered == field_names - self.OBSERVATION_ONLY
        assert "schema_version" in payload

    def test_exclusion_list_matches_declared_observation_fields(self):
        from repro.experiments.config import _DIGEST_EXCLUDED_FIELDS

        assert set(_DIGEST_EXCLUDED_FIELDS) == self.OBSERVATION_ONLY

    def test_deleted_sketch_knob_is_rejected_by_name(self):
        """Space-saving is the only sketch (DESIGN.md section 14); the
        selector is gone, not ignored."""
        with pytest.raises(TypeError, match="forensics_sketch"):
            paper_config(forensics_sketch="countmin")

    @pytest.mark.parametrize(
        "knob",
        [
            "record_offered",
            "record_flow_arrivals",
            "trace_cwnd_flows",
            "onoff_peak_gap",
            "onoff_mean_on",
            "onoff_mean_off",
            "onoff_shape",
            "tcp_tick",
            "initial_rto",
            "red_gentle",
            "drr_quantum",
            "forensics_burst_enter",
            "forensics_burst_exit",
            "forensics_sync_fraction",
        ],
    )
    def test_deleted_recording_knobs_are_rejected_by_name(self, knob):
        """Offered and per-flow counts are always recorded, cwnd traces
        are a view of the flight recorder's rows, and the eleven knobs
        nothing outside the tests varied are constants at their one
        reader (gentle RED is gone)."""
        with pytest.raises(TypeError, match=knob):
            paper_config(**{knob: True})

    def test_cells_that_read_the_deleted_knobs_keep_their_digests(self):
        """Literal digests computed while the knobs were still fields: a
        Pareto on/off DRR cell and a RED forensics cell."""
        onoff_drr = paper_config(traffic="pareto_onoff", queue="drr")
        assert onoff_drr.config_digest() == (
            "305521db4221b175dff795903e6afefa807f0540c55e5629f6f32ba115f887de"
        )
        red = paper_config(queue="red", protocol="reno_ecn", forensics=True)
        assert red.config_digest() == (
            "76541d5756636e47ae0d20ba50595364f922beebd86dc846defacee520e0ee17"
        )

    def test_every_workload_knob_changes_the_digest(self):
        base = ScenarioConfig()
        for overrides in [
            {"workload": "rpc"},
            {"rpc_request_packets": 5},
            {"rpc_response_packets": 5},
            {"rpc_think_time": 0.5},
            {"rpc_outstanding": 4},
            {"bsp_shuffle_packets": 7},
            {"bsp_compute_time": 0.9},
            {"bulk_job_packets": 11},
            {"bulk_job_gap": 2.5},
            {"workload_timeout": 12.0},
        ]:
            assert base.with_(**overrides).config_digest() != base.config_digest(), (
                overrides
            )


#: Why each ScenarioConfig field is a field and not a constant at its
#: one reader: the first thing outside the tests that sets it or reads
#: it as a model input.  "decided" marks a field kept by a recorded
#: decision with nothing to check it against.  A new field with no row
#: here fails the test below: give it a reason, or make it a constant.
FIELD_LEDGER = {
    "protocol": "claims cell",
    "queue": "claims cell",
    "backend": "flag",
    "n_clients": "claims cell",
    "hybrid_foreground_flows": "flag",
    "hybrid_background_flows": "flag",
    "hybrid_coupling_dt": "flag",
    "duration": "flag",
    "warmup": "fluid solver input",
    "seed": "flag",
    "client_rate_bps": "table 1 row",
    "client_delay": "table 1 row",
    "bottleneck_rate_bps": "table 1 row",
    "bottleneck_delay": "table 1 row",
    "buffer_capacity": "claims cell",
    "packet_size": "table 1 row",
    "mean_gap": "table 1 row",
    "traffic": "claims cell",
    "workload": "flag",
    "rpc_request_packets": "flag",
    "rpc_response_packets": "flag",
    "rpc_think_time": "flag",
    "rpc_outstanding": "flag",
    "bsp_shuffle_packets": "flag",
    "bsp_compute_time": "flag",
    "bulk_job_packets": "flag",
    "bulk_job_gap": "flag",
    "workload_timeout": "flag",
    "advertised_window": "table 1 row",
    "ack_delay": "batch envelope",
    "min_rto": "batch envelope",
    "pacing": "claims cell",
    "vegas_alpha": "claims cell",
    "vegas_beta": "claims cell",
    "vegas_gamma": "table 1 row",
    "red_min_th": "claims cell",
    "red_max_th": "claims cell",
    "red_max_p": "fluid solver input",
    "red_weight": "fluid solver input",
    # The c.o.v. bin: with warmup, the measurement window.
    "bin_width": "decided",
    "obs_trace": "observation toggle",
    "obs_profile": "observation toggle",
    "forensics": "sweep override",
    "forensics_window": "flag",
    "forensics_top_k": "flag",
    "forensics_sketch_capacity": "flag",
    "scheduler": "ledger shim",
    "engine": "flag",
}


def _fields_by_reason():
    """Each checkable FIELD_LEDGER reason -> the fields it covers, read
    off the code that sets or reads them."""
    import pathlib

    from repro.core.fluid_backend import FluidSolver
    from repro.experiments import claims, cli
    from repro.experiments.config import (
        _BATCH_ENVELOPE_ROWS,
        _DIGEST_EXCLUDED_FIELDS,
    )
    from repro.experiments.figures import SWEEPS, protocol_grid

    default = ScenarioConfig()

    def varied(configs):
        return {
            item.name
            for config in configs
            for item in dataclasses.fields(config)
            if getattr(config, item.name) != getattr(default, item.name)
        }

    def read_by(*functions):
        return {name for function in functions for name in function.__code__.co_names}

    claim_configs = claims.claim_cells(claims.CLAIMS.values(), default, seeds=(1, 2))
    sweep_configs = [
        config
        for spec in SWEEPS.values()
        for _key, config in protocol_grid(
            spec.clients, default.with_(**spec.overrides), spec.protocols
        )
    ]
    ledger_source = (
        pathlib.Path(__file__).resolve().parent.parent
        / "benchmarks" / "ledger" / "perlayer.py"
    ).read_text()
    return {
        "flag": {
            field for rows in cli._CONFIG_FLAGS.values() for _flag, field, _kw in rows
        },
        "claims cell": varied(claim_configs.values()),
        "sweep override": varied(sweep_configs),
        "table 1 row": read_by(table1_rows),
        "batch envelope": read_by(*(row[1] for row in _BATCH_ENVELOPE_ROWS)),
        "fluid solver input": read_by(FluidSolver.__init__),
        "observation toggle": set(_DIGEST_EXCLUDED_FIELDS),
        "ledger shim": {"scheduler"} if "scheduler=" in ledger_source else set(),
    }


def test_every_config_field_has_a_reason_in_the_ledger():
    assert set(FIELD_LEDGER) == {item.name for item in dataclasses.fields(ScenarioConfig)}
    by_reason = _fields_by_reason()
    unbacked = {
        name: reason
        for name, reason in FIELD_LEDGER.items()
        if reason != "decided" and name not in by_reason[reason]
    }
    assert unbacked == {}
