"""Scenario configuration: the paper's Table 1, reconstructed.

The OCR of the paper drops the digits '0' and '5'; DESIGN.md section 3
documents how each value below was recovered from the surviving digits
and the prose constraints (congestion knee between 38 and 39 clients,
gateway buffer overrun by three 17-packet bursts, RED ``max_th``
saturated by 40 Vegas streams, etc.).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import ENGINES
from repro.obs.probes import TRACE_CATEGORIES
from repro.sim.engine import SCHEDULERS
from repro.transport.transitions import TcpParams

#: Bumped whenever the meaning of a config field (or the simulator
#: physics behind it) changes incompatibly, so stale cache entries from
#: older code are never mistaken for current results.
#: v2: closed-loop application workloads (the ``workload`` family of
#: fields) and the sink delivery-hook plumbing behind them.
#: v3: flight-recorder observability (``perf_*``/``obs_*`` summary
#: fields on ScenarioMetrics; older cache entries lack them).
#: v4: the ``backend`` knob (packet engine vs mean-field fluid solver)
#: joins the digest, and ScenarioMetrics records which backend produced
#: each row; pre-backend cache entries are retired wholesale rather
#: than being silently reinterpreted as packet results.
#: v5: the hybrid fluid/packet backend and its digest-included knobs
#: (``hybrid_foreground_flows``, ``hybrid_background_flows``,
#: ``hybrid_coupling_dt``); hybrid metrics are foreground-scoped
#: (``ScenarioMetrics.measured_flows``), so records from schema-v4 code
#: must not satisfy v5 lookups.
CONFIG_SCHEMA_VERSION = 5

#: Deleted fields the digest covered, kept at their old payload values
#: (floats as the ``repr`` strings digest_payload writes) so that every
#: existing digest, and every cache entry, is unchanged.  The offered
#: and per-flow gateway counts are always recorded now; the rest were
#: knobs nothing varied, now constants at their one reader (the Pareto
#: on/off source's and DRRQueue's defaults, Scenario._tcp_params' tick
#: and first RTO) or, for gentle RED, gone.
_DELETED_FIELD_VALUES = {
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

#: Fields that only control *observation* (what gets traced), never the
#: simulated dynamics or any physics-derived ScenarioMetrics value, and
#: are therefore excluded from the content digest.  (The obs_* fields do
#: change the obs_* sample-count summaries, but those are observational
#: bookkeeping, not physics -- see tests/test_config.py.)
_DIGEST_EXCLUDED_FIELDS = frozenset(
    {
        "obs_trace",
        "obs_profile",
        # Burst forensics (repro.forensics): pure observers fed from the
        # gateway's hooks and the senders' state transitions, so the
        # knobs can never change a physics-derived metric (the
        # forensic_* ScenarioMetrics fields are diagnostic bookkeeping,
        # like the obs_* sample counts).
        "forensics",
        "forensics_window",
        "forensics_top_k",
        "forensics_sketch_capacity",
        # Single-valued (see the field): never was physics, so caches
        # written when it read "heap" stay valid.
        "scheduler",
        # Likewise the flow-state engine: the batch engine produces
        # bit-identical ScenarioMetrics, obs and forensics streams on
        # every supported cell (tests/test_batch_differential.py), so
        # results cached under one engine are valid under the other --
        # and under the default, which picks between them per cell.
        "engine",
    }
)

# Transport protocol configurations the paper sweeps (Figure 2's legend).
PROTOCOLS = (
    "udp",
    "tahoe",
    "reno",
    "reno_delack",
    "newreno",
    "sack",
    "vegas",
    "reno_ecn",
)

# Gateway queueing disciplines.
QUEUES = ("fifo", "red", "ared", "drr")

# Open-loop traffic models: the paper's Poisson sources, constant bit
# rate, or heavy-tailed Pareto on/off.
TRAFFIC = ("poisson", "cbr", "pareto_onoff")

# Scenario backends: the discrete-event packet engine (ground truth at
# any N it can afford), the mean-field fluid solver (the N -> infinity
# limit system; cost independent of n_clients), or the hybrid
# co-simulation (K foreground packet flows against the fluid background
# aggregate; cost scales with K, not N).  The fluid and hybrid backends
# model the paper's core grid only -- Reno/Vegas through a droptail or
# RED gateway under the open-loop workload; see _BACKEND_CAPABILITIES.
BACKENDS = ("packet", "fluid", "hybrid")

#: The paper's core grid: all the mean-field backends model.
_CORE_GRID = {
    "protocols": ("reno", "vegas"),
    "queues": ("fifo", "red"),
    "workloads": ("open",),
    "traffic": ("poisson", "cbr"),
    "pacing": False,
    "min_advertised_window": 2,
}

#: Per-backend capability table: the one statement of what each backend
#: reads and runs; validate() walks the rows _capability_rows() makes of
#: it.  The lists name what a backend models (absent: all).  ``flows``:
#: whether a run has per-flow packets, which the flight recorder,
#: forensics, cwnd, dependence and ns-2 traces need.  ``fields``: the
#: fields only this backend reads -> (least value, the field it may not
#: exceed); any other backend refuses one off its default (the digest
#: covers it).  ``engines``: for each ``engine`` value, whether the
#: backend "honours" it, takes it as a "no-op" or "refuses" it.
_BACKEND_CAPABILITIES = {
    "packet": {
        "flows": True,
        "engines": {"object": "honours", "batch": "honours"},
    },
    "fluid": {
        **_CORE_GRID,
        "flows": False,
        "engines": {"object": "no-op", "batch": "refuses"},
    },
    "hybrid": {
        **_CORE_GRID,
        "flows": True,
        "fields": {
            "hybrid_foreground_flows": (1, "n_clients"),
            "hybrid_background_flows": (0, None),
            "hybrid_coupling_dt": (0, None),
        },
        "engines": {"object": "no-op", "batch": "no-op"},
    },
}

#: Each backend -> the fields its cells never read: ``engine`` where it
#: honours no engine value, and the fields only other backends read.
UNREAD_FIELDS = {
    backend: ("engine",) * ("honours" not in caps["engines"].values())
    + tuple(field for other, other_caps in _BACKEND_CAPABILITIES.items()
            if other != backend for field in other_caps.get("fields", ()))
    for backend, caps in _BACKEND_CAPABILITIES.items()
}

# Application workloads: "open" is the paper's open-loop traffic (the
# `traffic` field picks the source); the rest are the closed-loop
# distributed-computing jobs of :mod:`repro.apps`.
WORKLOADS = ("open", "rpc", "bsp", "bulk")

#: Depth in packets of every drop-tail port of the dumbbell but the
#: gateway's port toward the server: the access ports both ways and the
#: server's reverse (ACK) port, effectively lossless.
ACCESS_QUEUE_PACKETS = 1000

#: The batch engine's envelope (DESIGN.md section 15), in the shape of
#: a ``_BACKEND_CAPABILITIES`` row: the packet-backend cells whose
#: per-hop event graph ``repro.engine.batch`` fuses into arithmetic
#: bit-identically.  Everything that reads the envelope -- the
#: dispatcher, the validator, the CLI's ``engine:`` line, the README
#: sentence tests/test_docs.py checks -- reads it from here and from
#: the rows below.
BATCH_ENVELOPE = {
    "backends": tuple(backend for backend, caps in _BACKEND_CAPABILITIES.items()
                      if caps["engines"]["batch"] == "honours"),
    "protocols": ("reno", "vegas", "reno_delack"),
    "workloads": WORKLOADS,
    "traffic": ("poisson",),
    "pacing": False,
}


def _capability_rows(subject, caps, says=None):
    """The ``(name, violated, message)`` rows of the capability row
    ``caps`` of ``subject`` (a backend, or "batch", whose ``says`` reword
    the listed and pacing rows), in report order.  A message is formatted
    with ``c`` = the config when its row is violated."""
    rows = []

    def row(name, violated, message, words=""):
        if says is not None and name in says:
            message = says[name].replace("{allowed}", words)
        rows.append((name, violated, message))

    for name, field, word in (
        ("protocols", "protocol", "protocol"),
        ("queues", "queue", "queue"),
        ("workloads", "workload", "workload"),
        ("traffic", "traffic", "traffic model"),
        ("backends", "backend", "backend"),
    ):
        allowed = caps.get(name)
        if allowed is not None:
            words = "/".join(allowed)
            # Only the open-loop workload has a traffic source.
            row(name, lambda c, f=field, a=allowed: getattr(c, f) not in a
                and (f != "traffic" or c.workload == "open"),
                f"the {subject} backend does not support {word} "
                f"{{c.{field}!r}} (supported: {words})", words)
    if caps.get("pacing") is False:
        row("pacing", lambda c: c.pacing,
            f"the {subject} backend does not support pacing")
    if caps.get("flows") is False:
        row("obs", lambda c: bool(c.obs_trace or c.obs_profile),
            f"the {subject} backend does not support the flight recorder "
            "(obs_trace/obs_profile): the mean-field limit has no per-flow "
            "packets to trace")
        row("forensics", lambda c: c.forensics,
            f"the {subject} backend does not support burst forensics: no "
            "per-flow packets to attribute")
    window = caps.get("min_advertised_window")
    if window is not None:
        row("min_advertised_window", lambda c: c.advertised_window < window,
            f"the {subject} backend needs advertised_window >= {window} (its "
            "window density lives on [1, advertised_window]); got "
            "{c.advertised_window}")
    for owner, owner_caps in _BACKEND_CAPABILITIES.items() if subject in BACKENDS else ():
        for field, (least, most) in owner_caps.get("fields", {}).items():
            default = getattr(ScenarioConfig, field)
            if owner != subject:
                row(field, lambda c, f=field, d=default: getattr(c, f) != d,
                    f"{field} is read only by the {owner} backend; the "
                    f"{subject} backend got {{c.{field}!r}} (leave it at "
                    f"{default!r})")
                continue
            row(field, lambda c, f=field, m=least: getattr(c, f) < m,
                f"{field} must be "
                + (f"at least {least}" if least else "non-negative"))
            if most is not None:
                row(field, lambda c, f=field, m=most: getattr(c, f) > getattr(c, m),
                    f"{field} cannot exceed {most} ({{c.{field}}} > {{c.{most}}})")
    for engine, rule in caps.get("engines", {}).items():
        if rule == "refuses":
            honour = [b for b, o in _BACKEND_CAPABILITIES.items()
                      if o["engines"][engine] == "honours"]
            row("engine", lambda c, e=engine: c.engine == e,
                f"engine={engine!r} applies to the {'/'.join(honour)} backend")
        elif rule == "honours" and engine == "batch":
            rows.extend(
                (name, lambda c, v=violated: c.engine == "batch" and v(c), message)
                for name, violated, message in _BATCH_ENVELOPE_ROWS
            )
    return tuple(rows)


#: The envelope's rows, in the order they are reported: (name, whether
#: the config violates it, the message -- formatted with ``c`` = the
#: config).  The first five are generated from the table above; the
#: rest are numeric and written out by hand.  The tie
#: rows exist because the object engine orders simultaneous events by
#: scheduling order, and each of its events is pushed a fixed lag
#: before it fires, so a tie between two event kinds reduces to
#: comparing two config constants.  The batch engine replicates that
#: order from the same constants, which requires every comparison it
#: relies on to be decidable:
#:  * the bottleneck port's enqueue (lag = access propagation delay)
#:    against its dequeue (lag = bottleneck serialization time);
#:  * a burst head's trigger -- the ACK delivery, same lag as above --
#:    against another flow's access-link finish (lag = access
#:    serialization time), which decides which of two simultaneous
#:    gateway arrivals was started first;
#:  * a retransmit timer (lag = RTO >= min_rto) against an ACK
#:    delivery;
#:  * a sink's delayed-ACK timer (lag = ack_delay) against a data
#:    delivery at the server (lag = bottleneck propagation delay).
_BATCH_ENVELOPE_ROWS = _capability_rows(
    "batch",
    BATCH_ENVELOPE,
    says={
        "protocols": "the batch engine supports {allowed} only; "
        "got protocol {c.protocol!r}",
        "workloads": "the batch engine supports {allowed} workloads only; "
        "got workload {c.workload!r}",
        "traffic": "the batch engine models {allowed} open-loop sources "
        "only; got traffic {c.traffic!r}",
        "backends": "engine='batch' applies to the {allowed} backend",
        "pacing": "the batch engine does not model pacing",
    },
) + (
    (
        "access_rate",
        lambda c: c.client_rate_bps < c.bottleneck_rate_bps,
        "the batch engine assumes access links at least as fast "
        "as the bottleneck (ACKs then never queue at the gateway's "
        "client ports, so two clients' ACKs are never delivered at "
        "the same instant, an order it does not model)",
    ),
    (
        "access_queue",
        lambda c: c.advertised_window >= ACCESS_QUEUE_PACKETS,
        "the batch engine assumes the access queue never "
        f"overflows (advertised_window < {ACCESS_QUEUE_PACKETS})",
    ),
    (
        "tie_bottleneck_serialization",
        lambda c: c.packet_size * 8.0 / c.bottleneck_rate_bps == c.client_delay,
        "the batch engine cannot replicate the object engine's "
        "tie-break when the bottleneck serialization time equals "
        "the access propagation delay exactly; perturb "
        "packet_size, bottleneck_rate_bps or client_delay",
    ),
    (
        "tie_access_serialization",
        lambda c: c.packet_size * 8.0 / c.client_rate_bps == c.client_delay,
        "the batch engine cannot replicate the object engine's "
        "tie-break when the access serialization time equals "
        "the access propagation delay exactly; perturb "
        "packet_size, client_rate_bps or client_delay",
    ),
    (
        "tie_timer",
        lambda c: c.min_rto <= c.client_delay,
        "the batch engine assumes retransmit timers are armed "
        "further ahead than the access propagation delay "
        "(min_rto > client_delay), so a timer always precedes a "
        "same-time ACK arrival, as it does in the object engine",
    ),
    (
        "tie_delayed_ack",
        lambda c: c.protocol == "reno_delack"
        and c.ack_delay == c.bottleneck_delay,
        "the batch engine cannot replicate the object engine's "
        "tie-break when the delayed-ACK timer equals the bottleneck "
        "propagation delay exactly; perturb ack_delay or "
        "bottleneck_delay",
    ),
)


@dataclass
class ScenarioConfig:
    """Everything needed to build and run one simulation."""

    # Experiment identity.
    protocol: str = "reno"
    queue: str = "fifo"
    # Which solver produces the metrics: "packet" (discrete-event
    # engine) or "fluid" (mean-field ODE limit).  Digest-included: the
    # two backends agree only within documented tolerance bands
    # (tests/test_fluid_differential.py), so their results must never
    # satisfy each other's cache lookups.
    backend: str = "packet"
    n_clients: int = 20
    # Hybrid backend knobs (used only when backend == "hybrid"; all
    # digest-included because they change the simulated physics).
    # ``hybrid_foreground_flows`` is K, the number of packet-exact
    # foreground flows; ``hybrid_background_flows`` pins the fluid
    # aggregate's flow count explicitly (0 = the ambient remainder,
    # n_clients - K); ``hybrid_coupling_dt`` is the foreground->fluid
    # feedback interval in seconds (0 = one fluid RK4 step).
    hybrid_foreground_flows: int = 10
    hybrid_background_flows: int = 0
    hybrid_coupling_dt: float = 0.0
    duration: float = 200.0  # Table 1: total test time
    warmup: float = 0.0  # measurement start (0 = measure from t=0, as the paper)
    seed: int = 1

    # Topology (Table 1).
    client_rate_bps: float = 10e6  # mu_c = 10 Mbps
    client_delay: float = 0.002  # tau_c = 2 ms
    bottleneck_rate_bps: float = 3e6  # mu_s (reconstructed; see DESIGN.md)
    bottleneck_delay: float = 0.200  # tau_s = 200 ms (reconstructed; see DESIGN.md)
    buffer_capacity: int = 50  # B = 50 packets

    # Workload (Table 1).
    packet_size: int = 1000  # bytes
    mean_gap: float = 0.1  # mean packet inter-generation time, seconds
    # Traffic model: "poisson" (the paper), "cbr", or "pareto_onoff"
    # (the heavy-tailed workload of the self-similarity literature).
    traffic: str = "poisson"

    # Closed-loop application workload (extension; see repro.apps).
    # "open" keeps the paper's open-loop sources; "rpc"/"bsp"/"bulk"
    # replace them with closed-loop distributed-computing jobs whose
    # offered load reacts to transport backpressure.
    workload: str = "open"
    # RPC: request size, modeled response size, think time between a
    # response and the next request, and concurrent requests per client.
    rpc_request_packets: int = 2
    rpc_response_packets: int = 2
    rpc_think_time: float = 0.2
    rpc_outstanding: int = 1
    # BSP: shuffle volume per worker per superstep and the mean local
    # compute time (exponential, so stragglers arise naturally).
    bsp_shuffle_packets: int = 30
    bsp_compute_time: float = 0.5
    # Bulk transfers: job size and the mean idle gap between jobs.
    bulk_job_packets: int = 200
    bulk_job_gap: float = 1.0
    # Work units not fully delivered within this many seconds are
    # abandoned (keeps lossy UDP runs from stalling forever).
    workload_timeout: float = 30.0

    # TCP (Table 1 + standard knobs).
    advertised_window: int = 20  # max advertised window, packets
    ack_delay: float = 0.1  # delayed-ACK timer for the DelAck variant
    # BSD/ns-2-era coarse retransmission timers (1 s floor; the 500 ms
    # tick and the 3 s first RTO are constants of Scenario._tcp_params).
    min_rto: float = 1.0

    # TCP pacing extension (not in the paper; see the pacing ablation).
    pacing: bool = False

    # TCP Vegas thresholds (Table 1: 1 / 3 / 1).
    vegas_alpha: float = 1.0
    vegas_beta: float = 3.0
    vegas_gamma: float = 1.0

    # RED gateway (Table 1: min_th 10, max_th 40).
    red_min_th: float = 10.0
    red_max_th: float = 40.0
    red_max_p: float = 0.1
    red_weight: float = 0.002

    # Measurement.
    bin_width: Optional[float] = None  # None = the round-trip propagation delay

    # Flight-recorder observability (see repro.obs).  ``obs_trace``
    # enables trace categories ("cwnd", "rtt", "state", "queue",
    # "drops", or "all"); ``obs_profile`` attaches the engine profiler.
    # Both observation-only: neither affects the simulated dynamics or
    # the config digest.
    obs_trace: Tuple[str, ...] = ()
    obs_profile: bool = False

    # Burst forensics (see repro.forensics): segment the gateway queue
    # into burst episodes, attribute each to its top-k contributing
    # flows (exact accountant cross-validated against a space-saving
    # sketch), and link episodes to loss-synchronization events.
    # Observation-only, like the obs_* knobs above.  ``forensics_window``
    # is the attribution window width in seconds (0 = one round-trip
    # propagation delay, the paper's binning);
    # ``forensics_sketch_capacity`` is the sketch's counter budget
    # (0 = 4 x top_k).  The burst thresholds and the sync quorum are
    # constants of ForensicsParams.from_config.
    forensics: bool = False
    forensics_window: float = 0.0
    forensics_top_k: int = 5
    forensics_sketch_capacity: int = 0

    # A ledger row name, not a choice: the performance ledger builds its
    # variant rows with config.with_(scheduler=s) and names them after
    # it.  There is nothing left to select (the calendar is one heap).
    scheduler: str = "wheel"

    # Flow engine.  Unset (the default), run_scenario picks per cell:
    # "batch" (the same sender and sink objects over fused transport
    # events; see repro.engine) when batch_envelope_violation() finds
    # nothing to object to, else "object" (every hop an event on the
    # topology: the full feature set, and the differential reference).
    # Setting it forces one -- "object" to run the oracle, "batch" to get an
    # error rather than a silent fallback outside the envelope.
    # Digest-excluded: batch is pinned bit-identical to object on every
    # cell it accepts (tests/test_batch_differential.py), so the choice
    # trades wall-clock time only.
    engine: Optional[str] = None

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def rtt_prop(self) -> float:
        """Round-trip propagation delay (the paper's c.o.v. bin width)."""
        return 2.0 * (self.client_delay + self.bottleneck_delay)

    @property
    def effective_bin_width(self) -> float:
        """The c.o.v. binning window actually used."""
        return self.bin_width if self.bin_width is not None else self.rtt_prop

    @property
    def per_client_rate(self) -> float:
        """Offered rate per client, packets/second."""
        return 1.0 / self.mean_gap

    @property
    def offered_load_bps(self) -> float:
        """Aggregate offered load in bits/second."""
        return self.n_clients * self.per_client_rate * self.packet_size * 8.0

    @property
    def bottleneck_capacity_pps(self) -> float:
        """Bottleneck service rate in packets/second."""
        return self.bottleneck_rate_bps / (self.packet_size * 8.0)

    def reverse_path_delay(self, n_packets: int = 1) -> float:
        """Modeled one-way latency of ``n_packets`` on the *reverse*
        (server-to-client) path: serialization at both links plus the
        propagation delays.  The reverse direction carries only ACKs and
        is never congested in the dumbbell, so closed-loop workloads use
        this closed form for RPC responses and barrier releases instead
        of simulating reverse data packets (see DESIGN.md)."""
        bits = n_packets * self.packet_size * 8.0
        return (
            bits / self.bottleneck_rate_bps
            + bits / self.client_rate_bps
            + self.client_delay
            + self.bottleneck_delay
        )

    @property
    def congestion_knee_clients(self) -> float:
        """Client count at which offered load equals bottleneck capacity."""
        return self.bottleneck_capacity_pps / self.per_client_rate

    @property
    def hybrid_background_count(self) -> int:
        """Background (fluid-aggregate) flow count of a hybrid run: the
        explicit ``hybrid_background_flows`` knob when set, else the
        ambient remainder ``n_clients - hybrid_foreground_flows``."""
        if self.hybrid_background_flows > 0:
            return self.hybrid_background_flows
        return max(self.n_clients - self.hybrid_foreground_flows, 0)

    @property
    def label(self) -> str:
        """Human-readable protocol/queue label (Figure 2 legend style)."""
        names = {
            "udp": "UDP",
            "tahoe": "Tahoe",
            "reno": "Reno",
            "reno_delack": "Reno/DelayAck",
            "newreno": "NewReno",
            "sack": "SACK",
            "vegas": "Vegas",
            "reno_ecn": "Reno/ECN",
        }
        base = names.get(self.protocol, self.protocol)
        if self.backend != "packet":
            base = f"{base}~{self.backend}"
        if self.pacing:
            base = f"{base}/Paced"
        if self.workload != "open":
            base = f"{base}+{self.workload.upper()}"
        if self.queue == "red":
            return f"{base}/RED"
        if self.queue == "ared":
            return f"{base}/ARED"
        if self.queue == "drr":
            return f"{base}/DRR"
        return base

    # ------------------------------------------------------------------
    # Validation and variation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ValueError on an unknown name, a bad number or a
        feature the backend (or the forced engine) cannot run."""
        # Every range check below is a comparison, and every comparison
        # with NaN is False, so NaN is refused first, by name.
        for item in fields(self):
            value = getattr(self, item.name)
            if isinstance(value, float) and math.isnan(value):
                raise ValueError(f"{item.name} must be a number; got nan")
        for name, word, known in (
            ("protocol", "protocol", PROTOCOLS),
            ("queue", "queue", QUEUES),
            ("backend", "backend", BACKENDS),
            ("traffic", "traffic model", TRAFFIC),
            ("workload", "workload", WORKLOADS),
        ):
            if getattr(self, name) not in known:
                raise ValueError(
                    f"unknown {word} {getattr(self, name)!r}; choose from {known}"
                )
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be at least 1; got {self.n_clients!r}")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= self.warmup < self.duration:
            raise ValueError("warmup must lie inside [0, duration)")
        for name in (
            "mean_gap", "packet_size", "client_rate_bps", "bottleneck_rate_bps"
        ):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive; got {getattr(self, name)!r}"
                )
        for name in ("client_delay", "bottleneck_delay", "ack_delay"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} cannot be negative; got {getattr(self, name)!r}"
                )
        if self.effective_bin_width <= 0:
            raise ValueError(
                f"bin_width must be positive; got {self.bin_width!r}"
                if self.bin_width is not None
                else "client_delay and bottleneck_delay cannot both be 0 "
                "without a bin_width: the c.o.v. bin defaults to the "
                "round-trip propagation delay"
            )
        if int((self.duration - self.warmup) / self.effective_bin_width) < 1:
            raise ValueError(
                f"the measurement window [warmup, duration) = [{self.warmup!r}, "
                f"{self.duration!r}) holds no whole bin of "
                f"{self.effective_bin_width!r} s, so there is no c.o.v. to "
                "take; lengthen duration, lower warmup or set a smaller bin_width"
            )
        if self.buffer_capacity < 1:
            raise ValueError(
                f"buffer_capacity must be at least 1 packet; "
                f"got {self.buffer_capacity!r}"
            )
        if self.advertised_window < 1:
            raise ValueError(
                f"advertised_window must be at least 1 packet; "
                f"got {self.advertised_window!r}"
            )
        if self.min_rto <= 0:
            raise ValueError(f"min_rto must be positive; got {self.min_rto!r}")
        if self.min_rto > TcpParams.max_rto:
            raise ValueError(
                f"min_rto cannot exceed the {TcpParams.max_rto!r}-s RTO "
                f"ceiling; got {self.min_rto!r}"
            )
        if self.queue in ("red", "ared"):
            if not 0 <= self.red_min_th < self.red_max_th:
                raise ValueError(
                    f"need 0 <= red_min_th < red_max_th; got red_min_th="
                    f"{self.red_min_th!r}, red_max_th={self.red_max_th!r}"
                )
            for name in ("red_max_p", "red_weight"):
                if not 0 < getattr(self, name) <= 1:
                    raise ValueError(
                        f"{name} must lie in (0, 1]; got {getattr(self, name)!r}"
                    )
        if self.protocol == "vegas":
            if not 0 <= self.vegas_alpha <= self.vegas_beta:
                raise ValueError(
                    f"need 0 <= vegas_alpha <= vegas_beta; got vegas_alpha="
                    f"{self.vegas_alpha!r}, vegas_beta={self.vegas_beta!r}"
                )
            if self.vegas_gamma < 0:
                raise ValueError(
                    f"vegas_gamma cannot be negative; got {self.vegas_gamma!r}"
                )
        for name in (
            "rpc_request_packets",
            "rpc_response_packets",
            "rpc_outstanding",
            "bsp_shuffle_packets",
            "bulk_job_packets",
        ):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be at least 1; got {getattr(self, name)!r}"
                )
        for name in ("rpc_think_time", "bsp_compute_time", "bulk_job_gap"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"{name} cannot be negative; got {getattr(self, name)!r}"
                )
        if self.workload_timeout <= 0:
            raise ValueError("workload_timeout must be positive")
        unknown = set(self.obs_trace) - set(TRACE_CATEGORIES)
        if unknown:
            raise ValueError(
                f"unknown obs_trace categories {sorted(unknown)}; "
                f"choose from {TRACE_CATEGORIES}"
            )
        if self.forensics_window < 0:
            raise ValueError("forensics_window must be non-negative")
        if self.forensics_top_k < 1:
            raise ValueError("forensics_top_k must be at least 1")
        if self.forensics_sketch_capacity < 0:
            raise ValueError("forensics_sketch_capacity must be non-negative")
        if self.scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}: the field is a ledger "
                f"row name with nothing left to select (the event calendar "
                f"is one binary heap); leave it at {SCHEDULERS[0]!r}"
            )
        if self.engine is not None and self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {ENGINES} "
                "(or leave it unset to pick per cell)"
            )
        # The backend's capability rows: running the wrong physics
        # silently would be worse than an error naming the feature.
        for _name, violated, message in _BACKEND_ROWS[self.backend]:
            if violated(self):
                raise ValueError(message.format(c=self))
        if self.protocol == "reno_ecn" and self.queue == "fifo":
            raise ValueError("reno_ecn requires an ECN-marking (RED) gateway")

    def batch_envelope_violation(self) -> Optional[str]:
        """Why the batch engine cannot pin this cell, or None if it can.

        The batch engine fuses the access hop and the reverse
        ACK path into closed-form arithmetic; those fusions are only
        bit-identical to the object engine inside the envelope that
        ``BATCH_ENVELOPE`` and ``_BATCH_ENVELOPE_ROWS`` spell out
        (see DESIGN.md section 15): this is the first row the config
        violates, and run_scenario's default dispatch sends every cell
        with one to the object engine.
        """
        for _name, violated, message in _BATCH_ENVELOPE_ROWS:
            if violated(self):
                return message.format(c=self)
        return None

    def validate_batch_engine(self) -> None:
        """Raise ValueError when the batch engine cannot pin this cell."""
        violation = self.batch_envelope_violation()
        if violation is not None:
            raise ValueError(violation)

    def resolved_engine(self) -> str:
        """The flow engine run_scenario runs this cell on: the forced
        one if the backend honours ``engine``, else batch inside its
        envelope.  A backend that honours no engine value runs
        "object": the hybrid foreground is object flows, and a fluid
        cell -- which has no flows at all -- reads "object" too, as its
        rows did before the run log named engines."""
        if _BACKEND_CAPABILITIES[self.backend]["engines"].get(self.engine) == "honours":
            return self.engine
        if "engine" in UNREAD_FIELDS[self.backend]:
            return "object"
        return "object" if self.batch_envelope_violation() else "batch"

    @property
    def has_flows(self) -> bool:
        """Whether the run has per-flow packets (the backend's ``flows``)."""
        return _BACKEND_CAPABILITIES[self.backend]["flows"]

    def with_(self, **overrides) -> "ScenarioConfig":
        """A copy with the given fields replaced."""
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def digest_payload(self) -> Dict[str, Any]:
        """The canonical dict the content digest is computed over.

        Covers every physics-relevant field (anything that can change a
        :class:`ScenarioMetrics` value) plus the schema version; purely
        observational fields are excluded so e.g. enabling cwnd tracing
        does not invalidate cached metrics.
        """
        payload: Dict[str, Any] = {"schema_version": CONFIG_SCHEMA_VERSION}
        payload.update(_DELETED_FIELD_VALUES)
        for spec in fields(self):
            if spec.name in _DIGEST_EXCLUDED_FIELDS:
                continue
            value = getattr(self, spec.name)
            if isinstance(value, float):
                # repr() of a float is exact and stable across platforms
                # and processes; str() would be too, but be explicit.
                value = repr(value)
            elif isinstance(value, tuple):
                value = list(value)
            payload[spec.name] = value
        return payload

    def config_digest(self) -> str:
        """Stable hex content hash of this configuration.

        Two configs with identical physics (same digest payload) hash
        identically in any process on any platform, so the digest can
        key an on-disk result cache shared between runs.
        """
        canonical = json.dumps(
            self.digest_payload(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: Each backend's rows, built once: validate() walks them.
_BACKEND_ROWS = {
    backend: _capability_rows(backend, caps)
    for backend, caps in _BACKEND_CAPABILITIES.items()
}


def paper_config(**overrides) -> ScenarioConfig:
    """The reconstructed Table 1 configuration, with overrides."""
    return ScenarioConfig().with_(**overrides)


def table1_rows() -> List[Tuple[str, str]]:
    """The Table 1 parameter listing as (parameter, value) rows."""
    config = ScenarioConfig()
    return [
        ("client link bandwidth (mu_c)", f"{config.client_rate_bps / 1e6:g} Mbps"),
        ("client link delay (tau_c)", f"{config.client_delay * 1e3:g} ms"),
        (
            "bottleneck link bandwidth (mu_s)",
            f"{config.bottleneck_rate_bps / 1e6:g} Mbps",
        ),
        ("bottleneck link delay (tau_s)", f"{config.bottleneck_delay * 1e3:g} ms"),
        ("TCP max advertised window", f"{config.advertised_window} packets"),
        ("gateway buffer size (B)", f"{config.buffer_capacity} packets"),
        ("packet size", f"{config.packet_size} bytes"),
        ("average packet intergeneration time (1/lambda)", f"{config.mean_gap:g} s"),
        ("total test time", f"{config.duration:g} s"),
        ("TCP Vegas alpha", f"{config.vegas_alpha:g}"),
        ("TCP Vegas beta", f"{config.vegas_beta:g}"),
        ("TCP Vegas gamma", f"{config.vegas_gamma:g}"),
        ("RED min_th", f"{config.red_min_th:g} packets"),
        ("RED max_th", f"{config.red_max_th:g} packets"),
    ]
