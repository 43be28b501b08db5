"""The paper's sweep figures as two tables over one grid.

Figures 2, 3, 4 and 13 are four y-columns of one protocol x client-count
grid, and the large-N, fluid, hybrid and forensics sweeps are that same
grid under one ``base.with_(...)`` override.  So the grid is run by one
function (:func:`run_protocol_sweep`) and everything that tells one
figure or sweep from another is a row:

* :data:`FIGURES` -- one :class:`FigureSpec` per y-column: id, title,
  y-label, the :class:`ScenarioMetrics` column, and the few things that
  really differ (TCP-only panel, ``min_clients``, per-flow divisor,
  finite-only filter, Poisson reference).  :func:`build_figure` slices a
  row out of a sweep.
* :data:`SWEEPS` -- one :class:`SweepSpec` per ``repro-tcp`` sweep
  subcommand: help, default client counts, protocol panel, config
  overrides and the figures it prints.  :func:`run_spec` runs a row.

A new y-column is a ``FIGURES`` row named in the ``figures`` of the
sweeps that should print it; a new sweep is a ``SWEEPS`` row, which the
CLI turns into a subcommand with no further code.  ``figure2_cov``
below the tables is a binding to a row, kept for the performance
ledger, the examples and the tests that import it.

What is genuinely unique stays a function: the congestion-window
traces of Figures 5-12 from single traced runs
(:func:`cwnd_trace_experiment`) and the stacked attribution timeline of
one forensics report (:func:`figure_burst_attribution`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.forensics.report import ForensicsReport

from repro.analysis.asciiplot import ascii_series_plot
from repro.analysis.tables import format_table
from repro.core.theory import poisson_aggregate_cov
from repro.experiments.config import ScenarioConfig, paper_config
from repro.experiments.results import ScenarioMetrics, ScenarioResult
from repro.experiments.scenario import run_scenario
from repro.experiments.sweep import run_many

# The protocol/queue combinations in Figure 2's legend, in legend order.
FIGURE2_PROTOCOLS: Dict[str, Tuple[str, str]] = {
    "udp": ("udp", "fifo"),
    "reno": ("reno", "fifo"),
    "reno_red": ("reno", "red"),
    "vegas": ("vegas", "fifo"),
    "vegas_red": ("vegas", "red"),
    "reno_delack": ("reno_delack", "fifo"),
}

# Figures 3, 4 and 13 start their x-axis at 30 clients ("the different
# TCP implementations exhibit nearly identical behavior for less than 30
# clients") and omit UDP.
TCP_ONLY_PROTOCOLS = tuple(k for k in FIGURE2_PROTOCOLS if k != "udp")


def _panel(*keys: str) -> Dict[str, Tuple[str, str]]:
    """A sub-panel of Figure 2's legend, in the order given."""
    return {key: FIGURE2_PROTOCOLS[key] for key in keys}


# The paper's Reno/Vegas headliners under both gateway disciplines: the
# forensics grid, and the grid the fluid and hybrid backends model.
FORENSICS_PROTOCOLS = _panel("reno", "reno_red", "vegas", "vegas_red")


@dataclass
class FigureData:
    """A regenerated figure: named series plus rendering helpers."""

    figure_id: str
    title: str
    xlabel: str
    ylabel: str
    series: Dict[str, Tuple[List[float], List[float]]] = field(default_factory=dict)

    def add_series(self, name: str, xs: Sequence[float], ys: Sequence[float]) -> None:
        """Add one named (x, y) series."""
        self.series[name] = (list(xs), list(ys))

    def render_plot(self, width: int = 72, height: int = 20) -> str:
        """ASCII chart of all series."""
        return ascii_series_plot(
            self.series,
            width=width,
            height=height,
            title=f"{self.figure_id}: {self.title}",
            xlabel=self.xlabel,
            ylabel=self.ylabel,
        )

    def render_table(self, precision: int = 4) -> str:
        """Aligned text table: one row per x, one column per series."""
        xs = sorted({x for xs_ys in self.series.values() for x in xs_ys[0]})
        headers = [self.xlabel] + list(self.series)
        rows: List[List[object]] = []
        for x in xs:
            row: List[object] = [x]
            for name in self.series:
                series_x, series_y = self.series[name]
                row.append(
                    series_y[series_x.index(x)] if x in series_x else float("nan")
                )
            rows.append(row)
        return format_table(
            headers, rows, precision=precision, title=f"{self.figure_id}: {self.title}"
        )

    def to_rows(self) -> List[Dict[str, object]]:
        """Long-format rows (series, x, y) for CSV export."""
        rows: List[Dict[str, object]] = []
        for name, (xs, ys) in self.series.items():
            for x, y in zip(xs, ys):
                rows.append({"series": name, self.xlabel: x, self.ylabel: y})
        return rows


SweepData = Dict[str, List[ScenarioMetrics]]


def protocol_grid(
    client_counts: Sequence[int],
    base: ScenarioConfig,
    protocols: Mapping[str, Tuple[str, str]] = FIGURE2_PROTOCOLS,
) -> List[Tuple[str, ScenarioConfig]]:
    """The cells :func:`run_protocol_sweep` runs, in order: one
    ``(series key, config)`` per protocol panel entry and client count."""
    return [
        (key, base.with_(protocol=protocol, queue=queue, n_clients=n))
        for key, (protocol, queue) in protocols.items()
        for n in client_counts
    ]


def run_protocol_sweep(
    client_counts: Sequence[int],
    base: Optional[ScenarioConfig] = None,
    protocols: Mapping[str, Tuple[str, str]] = FIGURE2_PROTOCOLS,
    processes: Optional[int] = None,
    **runner_kwargs,
) -> SweepData:
    """Run the (protocol x client-count) grid behind every sweep figure.

    Extra keyword arguments (``cache``, ``timeout``, ``retries``,
    ``run_log``, ...) pass through to :func:`run_many`, so figure sweeps
    resume from a cache directory and tolerate failing cells.
    """
    grid = protocol_grid(client_counts, base or paper_config(), protocols)
    metrics = run_many(
        [config for _, config in grid], processes=processes, **runner_kwargs
    )
    sweep: SweepData = {key: [] for key in protocols}
    for (key, _), metric in zip(grid, metrics):
        sweep[key].append(metric)
    for key in sweep:
        sweep[key].sort(key=lambda m: m.n_clients)
    return sweep


@dataclass(frozen=True)
class FigureSpec:
    """One y-column of the protocol x client-count grid, as a figure."""

    figure_id: str
    #: May name ``{k}``, the hybrid backend's foreground flow count.
    title: str
    ylabel: str
    #: The :class:`ScenarioMetrics` attribute on the y-axis.
    column: str
    #: Keep only :data:`TCP_ONLY_PROTOCOLS` (Figures 3, 4 and 13).
    tcp_only: bool = False
    #: Drop client counts below this (callers may override per figure).
    min_clients: int = 0
    #: Divide by the cell's measured flow count and skip failed cells
    #: (whose zeroed counters would plot as measurements).  The divisor
    #: is ``measured_flows`` when the record carries one (K for hybrid
    #: cells, N for packet cells) and ``n_clients`` otherwise (fluid
    #: cells and pre-hybrid records, whose aggregates cover all N
    #: flows), which puts packet, fluid and hybrid sweeps on one axis.
    per_flow: bool = False
    #: Drop non-finite points (forensic columns are NaN on cells that
    #: ran without forensics).
    finite_only: bool = False
    #: The analytic Poisson c.o.v. reference series, if any: "clients"
    #: is the 1/sqrt(N) curve of N aggregated sources; "foreground" is
    #: the c.o.v. of the K hybrid foreground flows, flat in ambient N
    #: because the measured population never grows.
    poisson: Optional[str] = None


def build_figure(
    spec: FigureSpec,
    sweep: SweepData,
    base: Optional[ScenarioConfig] = None,
    min_clients: Optional[int] = None,
) -> FigureData:
    """Slice one :data:`FIGURES` row out of a sweep.

    ``base`` supplies the rate, bin width and foreground count of the
    Poisson reference (the Table 1 defaults when omitted).
    """
    base = base or paper_config()
    foreground = base.hybrid_foreground_flows
    if min_clients is None:
        min_clients = spec.min_clients
    figure = FigureData(
        figure_id=spec.figure_id,
        title=spec.title.format(k=foreground),
        xlabel="number of clients",
        ylabel=spec.ylabel,
    )
    if spec.poisson is not None:
        flat = spec.poisson == "foreground"
        client_counts = sorted(
            {m.n_clients for metrics in sweep.values() for m in metrics}
        )
        figure.add_series(
            f"Poisson ({foreground} flows)" if flat else "Poisson",
            [float(n) for n in client_counts],
            [
                poisson_aggregate_cov(
                    foreground if flat else n,
                    base.per_client_rate,
                    base.effective_bin_width,
                )
                for n in client_counts
            ],
        )
    keys = [k for k in TCP_ONLY_PROTOCOLS if k in sweep] if spec.tcp_only else sweep
    for key in keys:
        points: List[Tuple[float, float]] = []
        for m in sweep[key]:
            if m.n_clients < min_clients or (spec.per_flow and m.failed):
                continue
            y = float(getattr(m, spec.column))
            if spec.per_flow:
                y /= max(m.measured_flows or m.n_clients, 1)
            if spec.finite_only and not math.isfinite(y):
                continue
            points.append((float(m.n_clients), y))
        if points:
            figure.add_series(sweep[key][0].label, *zip(*points))
    return figure


def forensics_figure(column: str) -> FigureSpec:
    """The burstiness-forensics row for one ``forensic_*`` column (any
    other column plots too, labelled with its own name)."""
    ylabels = {
        "forensic_burst_rate": "burst episodes per second",
        "forensic_sync_linked_fraction": "fraction of bursts sync-linked",
        "forensic_drop_share": "fraction of drops inside bursts",
        "forensic_burst_duration_mean": "mean burst duration (s)",
    }
    return FigureSpec(
        f"figF sweep ({column})",
        "burst forensics across the protocol sweep",
        ylabels.get(column, column),
        column,
        finite_only=True,
    )


_FIGURE2 = FigureSpec(
    "Figure 2",
    "Coefficient of Variation of the Aggregated TCP Traffic",
    "coefficient of variation",
    "cov",
    poisson="clients",
)

#: Every sweep figure.  The four paper rows are keyed by the file stem
#: ``repro-tcp all`` writes them under.
FIGURES: Dict[str, FigureSpec] = {
    "fig02_cov": _FIGURE2,
    "fig03_throughput": FigureSpec(
        "Figure 3",
        "Throughput of the Aggregated TCP Traffic",
        "total packets successfully transmitted",
        "throughput_packets",
        tcp_only=True,
        min_clients=30,
    ),
    "fig04_loss": FigureSpec(
        "Figure 4",
        "Packet Loss Percentage of the Aggregated TCP Traffic",
        "packet loss percentage (%)",
        "loss_percent",
        tcp_only=True,
        min_clients=30,
    ),
    "fig13_timeout_ratio": FigureSpec(
        "Figure 13",
        "Ratio of Timeouts to Duplicate ACKs",
        "timeout/duplicate-ACK ratio",
        "timeout_dupack_ratio",
        tcp_only=True,
        min_clients=30,
    ),
    # Figure 2's axes past the paper's 60 clients.  The Poisson
    # reference makes the paper's point at scale: the analytic
    # 1/sqrt(N) curve keeps falling while the TCP series flatten out
    # (congestion control re-correlates the aggregate).
    "largen_cov": replace(
        _FIGURE2,
        figure_id="Figure 2 (large N)",
        title="C.o.v. of the Aggregated Traffic, N to 500",
    ),
    # ... and out to N=10^6 on the mean-field backend.  The reference
    # falls until the link saturates (above the congestion knee the
    # per-bin count stops growing with N, flooring the sampling c.o.v.
    # near 1/sqrt(C * bin)); the TCP curves sit above that floor because
    # the congestion-control limit cycle survives the N -> infinity
    # limit: burstiness is not averaged away.
    "fluid_cov": replace(
        _FIGURE2,
        figure_id="Figure 2 (fluid, large N)",
        title="C.o.v. of the Aggregated Traffic, mean-field N to 1e6",
    ),
    # Foreground (packet-measured) c.o.v. vs ambient N.  Any rise of a
    # TCP series above the flat K-flow reference as N climbs is
    # congestion feedback from the shared gateway: the background limit
    # cycle modulates what the K real flows experience, which is the
    # paper's burstiness mechanism seen from inside a flow.
    "hybrid_cov": replace(
        _FIGURE2,
        figure_id="Figure 2 (hybrid, large N)",
        title="C.o.v. of {k} packet-level foreground flows, ambient N to 1e6",
        poisson="foreground",
    ),
    # Figure 3/4 analogues for any backend.  The paper's Figure 3 plots
    # the aggregate total, which only the packet backend measures per
    # flow; loss percentage is already population-size-free, so its
    # analogue is the complementary absolute count per measured flow.
    "fig03_per_flow": FigureSpec(
        "Figure 3 (per flow)",
        "Per-flow Throughput of the TCP Traffic",
        "packets successfully transmitted per flow",
        "throughput_packets",
        per_flow=True,
    ),
    "fig04_per_flow": FigureSpec(
        "Figure 4 (per flow)",
        "Per-flow Packet Drops of the TCP Traffic",
        "gateway drops per flow",
        "gateway_drops",
        per_flow=True,
    ),
    # What the paper's mechanism story predicts: droptail burst rate
    # climbs with N as the shared buffer saturates more often, while
    # RED's early dropping keeps its curve flat or falling -- and the
    # companion diagnosis, what share of those bursts follow a
    # loss-synchronization event.
    "forensics_burst_rate": forensics_figure("forensic_burst_rate"),
    "forensics_sync_linked": forensics_figure("forensic_sync_linked_fraction"),
}


def default_traced_flows(n_clients: int) -> Tuple[int, ...]:
    """The flows Figures 5-12 trace by default: the paper follows three
    spread-out client streams per snapshot (e.g. clients 1, 10 and 20
    of 20); we take the first, the middle and the last."""
    return tuple(sorted({0, n_clients // 2, n_clients - 1}))


def cwnd_trace_experiment(
    protocol: str,
    n_clients: int,
    base: Optional[ScenarioConfig] = None,
    queue: str = "fifo",
    duration: Optional[float] = None,
) -> ScenarioResult:
    """One run with every flow's congestion window recorded (Figures
    5-12); ``result.cwnd_traces(default_traced_flows(n_clients))`` are
    the three the paper follows."""
    config = (base or paper_config()).with_(
        protocol=protocol, queue=queue, n_clients=n_clients, obs_trace=("cwnd",)
    )
    if duration is not None:
        config = config.with_(duration=duration)
    return run_scenario(config)


def figure_burst_attribution(
    report: "ForensicsReport", k: int = 3
) -> FigureData:
    """Stacked top-k attribution timeline from a forensics report.

    One point per attribution window.  The flow series are *cumulative*
    (flow a; a+b; a+b+c ...), so the vertical gap between consecutive
    curves is that flow's bytes in the window and the gap up to the
    ``all flows`` curve is everybody else's -- the ASCII rendering of a
    stacked area chart.  Flows are the run's overall top-k by exact
    bytes, heaviest first.
    """
    figure = FigureData(
        figure_id="figF",
        title="burst forensics: stacked top-k flow attribution",
        xlabel="time (s)",
        ylabel="bytes per window",
    )
    windows = report.exact.windows()
    if not windows:
        return figure
    totals: Dict[int, int] = {}
    for index in windows:
        for flow, entry in report.exact.window_counts(index).items():
            totals[flow] = totals.get(flow, 0) + entry[1]
    top_flows = [
        flow
        for flow, _ in sorted(totals.items(), key=lambda i: (-i[1], i[0]))[:k]
    ]
    xs = [report.exact.window_start(index) for index in windows]
    stack = [0.0] * len(windows)
    for depth, flow in enumerate(top_flows):
        for pos, index in enumerate(windows):
            entry = report.exact.window_counts(index).get(flow)
            stack[pos] += entry[1] if entry else 0
        name = "+".join(f"flow{f}" for f in top_flows[: depth + 1])
        figure.add_series(name, xs, list(stack))
    figure.add_series(
        "all flows",
        xs,
        [float(report.exact.window_total_bytes(index)) for index in windows],
    )
    return figure


# The paper's grid (Figures 2-4 and 13).
_PAPER_CLIENTS = tuple(range(4, 61, 8))

# The mean-field ladder: out to N=10^6, reachable only because the
# fluid solver's cost is independent of N.  The low counts overlap the
# packet-validated range so the two regimes join up on one curve.
_MEANFIELD_CLIENTS = (50, 100, 200, 500, 1_000, 10_000, 100_000, 1_000_000)


@dataclass(frozen=True)
class SweepSpec:
    """One ``repro-tcp`` sweep subcommand: a grid and what to print.

    The default grid is the paper's (Figures 2-4 and 13).
    """

    name: str
    help: str
    #: :data:`FIGURES` keys, in print order; ``--csv``/``--json`` hold
    #: the first figure's rows / series.
    figures: Tuple[str, ...]
    #: Default client counts (``--clients`` overrides them).
    clients: Tuple[int, ...] = _PAPER_CLIENTS
    protocols: Mapping[str, Tuple[str, str]] = field(
        default_factory=lambda: FIGURE2_PROTOCOLS
    )
    #: Applied to the base config with ``with_``.  They are in the
    #: config digest, so e.g. fluid cells cache separately from packet
    #: cells of the same grid.
    overrides: Mapping[str, object] = field(default_factory=dict)
    #: When set, one key per figure: ``--json`` then holds every
    #: figure's series under these keys and ``--csv`` the per-cell
    #: metric rows, not the first figure alone.
    export_keys: Tuple[str, ...] = ()


_SWEEP_ROWS = (
    SweepSpec("fig2", "c.o.v. vs clients (Figure 2)", ("fig02_cov",)),
    SweepSpec("fig3", "throughput vs clients (Figure 3)", ("fig03_throughput",)),
    SweepSpec("fig4", "loss percentage vs clients (Figure 4)", ("fig04_loss",)),
    SweepSpec(
        "fig13",
        "timeout/dupACK ratio vs clients (Figure 13)",
        ("fig13_timeout_ratio",),
    ),
    SweepSpec(
        "all",
        "regenerate Table 1 and Figures 2/3/4/13 into a directory",
        ("fig02_cov", "fig03_throughput", "fig04_loss", "fig13_timeout_ratio"),
    ),
    # The paper stops at 60 clients; this grid probes the
    # statistical-multiplexing regime its ns runs could not reach: the
    # uncontrolled Poisson baseline (where c.o.v. must fall as
    # 1/sqrt(N)) against the headline TCP configurations (where
    # congestion control defeats the averaging).
    SweepSpec(
        "largen",
        "large-N c.o.v. sweep out to N=500",
        ("largen_cov",),
        clients=(20, 50, 100, 200, 350, 500),
        protocols=_panel("udp", "reno", "reno_red"),
    ),
    SweepSpec(
        "fluid",
        "mean-field c.o.v. sweep out to N=1e6 (fluid backend)",
        ("fluid_cov",),
        clients=_MEANFIELD_CLIENTS,
        protocols=FORENSICS_PROTOCOLS,
        overrides={"backend": "fluid"},
    ),
    # The same ladder, but every cell keeps K packet-exact foreground
    # flows (``hybrid_foreground_flows``) against a fluid background of
    # the remaining clients, so the measured c.o.v. is *packet-level*
    # -- binned arrivals of real foreground packets at the gateway --
    # at ambient counts only the fluid background makes affordable.
    SweepSpec(
        "hybrid",
        "hybrid c.o.v. sweep: packet-exact foreground flows "
        "against fluid ambient load out to N=1e6",
        ("hybrid_cov", "fig03_per_flow", "fig04_per_flow"),
        clients=_MEANFIELD_CLIENTS,
        protocols=FORENSICS_PROTOCOLS,
        overrides={"backend": "hybrid"},
    ),
    # Client counts spanning the paper's knee, kept modest because
    # forensics instruments the packet engine, so the backend is pinned;
    # the buffer is widened to give RED's early-drop region headroom
    # over its thresholds.
    SweepSpec(
        "forensics",
        "burst forensics: episode segmentation, top-k flow "
        "attribution, loss-synchronization linkage",
        ("forensics_burst_rate", "forensics_sync_linked", "fig02_cov"),
        clients=(20, 40, 60),
        protocols=FORENSICS_PROTOCOLS,
        overrides={"buffer_capacity": 100, "backend": "packet", "forensics": True},
        export_keys=("burst_rate", "sync_linked_fraction", "cov"),
    ),
)

#: Every sweep subcommand, by name.
SWEEPS: Dict[str, SweepSpec] = {spec.name: spec for spec in _SWEEP_ROWS}


def run_spec(
    spec: SweepSpec,
    client_counts: Optional[Sequence[int]] = None,
    base: Optional[ScenarioConfig] = None,
    processes: Optional[int] = None,
    **runner_kwargs,
) -> SweepData:
    """Run one :data:`SWEEPS` row: its grid under its overrides."""
    return run_protocol_sweep(
        spec.clients if client_counts is None else client_counts,
        base=(base or paper_config()).with_(**spec.overrides),
        protocols=spec.protocols,
        processes=processes,
        **runner_kwargs,
    )


# ----------------------------------------------------------------------
# Binding: the name the ledger, examples and tests import, one row.
# ----------------------------------------------------------------------
def figure2_cov(
    sweep: SweepData, base: Optional[ScenarioConfig] = None
) -> FigureData:
    """Figure 2: c.o.v. of the aggregated traffic vs number of clients."""
    return build_figure(_FIGURE2, sweep, base)
