"""One function per paper figure.

Figures 2-4 and 13 all derive from the same protocol-by-client-count
sweep, so :func:`run_protocol_sweep` runs the grid once and each figure
function slices it.  Figures 5-12 are congestion-window traces from
single runs with tracing enabled (:func:`cwnd_trace_experiment`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from repro.experiments.results import ScenarioMetrics
from repro.experiments.scenario import ScenarioResult, run_scenario
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

# The client counts of the paper's congestion-window snapshots.
RENO_CWND_CLIENT_COUNTS = (20, 30, 38, 39, 60)  # Figures 5-9
VEGAS_CWND_CLIENT_COUNTS = (20, 30, 60)  # Figures 10-12

# The large-N extension of Figure 2: client counts out to N=500, the
# statistical-multiplexing regime the paper's ns runs could not reach.
LARGEN_CLIENT_COUNTS = (20, 50, 100, 200, 350, 500)

# Large-N protocol panel: the uncontrolled Poisson baseline (where
# c.o.v. must fall as 1/sqrt(N)) against the paper's headline TCP
# configurations (where congestion control defeats the averaging).
LARGEN_PROTOCOLS: Dict[str, Tuple[str, str]] = {
    "udp": ("udp", "fifo"),
    "reno": ("reno", "fifo"),
    "reno_red": ("reno", "red"),
}

# The forensics sweep grid: the Reno/Vegas headliners under both
# gateway disciplines, at client counts spanning the paper's knee.
# Forensics needs the packet backend, so the counts stay modest.
FORENSICS_CLIENT_COUNTS = (20, 40, 60)

FORENSICS_PROTOCOLS: Dict[str, Tuple[str, str]] = {
    "reno": ("reno", "fifo"),
    "reno_red": ("reno", "red"),
    "vegas": ("vegas", "fifo"),
    "vegas_red": ("vegas", "red"),
}

# The mean-field extension of Figure 2: client counts out to N=10^6,
# reachable only through the fluid backend (solver cost is independent
# of N).  The low counts overlap the packet-validated range so the two
# regimes join up on one curve.
FLUID_CLIENT_COUNTS = (50, 100, 200, 500, 1_000, 10_000, 100_000, 1_000_000)

# The fluid backend's modeled grid: the paper's Reno/Vegas headliners
# under both gateway disciplines.
FLUID_PROTOCOLS: Dict[str, Tuple[str, str]] = {
    "reno": ("reno", "fifo"),
    "reno_red": ("reno", "red"),
    "vegas": ("vegas", "fifo"),
    "vegas_red": ("vegas", "red"),
}

# The hybrid extension of Figure 2: the same ambient ladder as the
# fluid grid, but with K packet-exact foreground flows whose c.o.v. is
# measured packet-level (the fluid cost is N-independent, so the ladder
# tops out at N=10^6 all the same).
HYBRID_CLIENT_COUNTS = FLUID_CLIENT_COUNTS


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


def run_protocol_sweep(
    client_counts: Sequence[int],
    base: Optional[ScenarioConfig] = None,
    protocols: Mapping[str, Tuple[str, str]] = FIGURE2_PROTOCOLS,
    processes: Optional[int] = None,
    **runner_kwargs,
) -> SweepData:
    """Run the (protocol x client-count) grid behind Figures 2-4 and 13.

    Extra keyword arguments (``cache``, ``timeout``, ``retries``,
    ``run_log``, ...) pass through to :func:`run_many`, so figure sweeps
    resume from a cache directory and tolerate failing cells.
    """
    base = base or paper_config()
    keys: List[str] = []
    configs: List[ScenarioConfig] = []
    for key, (protocol, queue) in protocols.items():
        for n in client_counts:
            keys.append(key)
            configs.append(base.with_(protocol=protocol, queue=queue, n_clients=n))
    metrics = run_many(configs, processes=processes, **runner_kwargs)
    sweep: SweepData = {key: [] for key in protocols}
    for key, metric in zip(keys, metrics):
        sweep[key].append(metric)
    for key in sweep:
        sweep[key].sort(key=lambda m: m.n_clients)
    return sweep


def _series_from_sweep(
    sweep: SweepData, attribute: str, keys: Optional[Sequence[str]] = None
) -> Dict[str, Tuple[List[float], List[float]]]:
    series: Dict[str, Tuple[List[float], List[float]]] = {}
    for key in keys if keys is not None else sweep:
        metrics = sweep[key]
        if not metrics:
            continue
        label = metrics[0].label
        xs = [float(m.n_clients) for m in metrics]
        ys = [float(getattr(m, attribute)) for m in metrics]
        series[label] = (xs, ys)
    return series


def figure2_cov(
    sweep: SweepData, base: Optional[ScenarioConfig] = None
) -> FigureData:
    """Figure 2: c.o.v. of the aggregated traffic vs number of clients."""
    base = base or paper_config()
    figure = FigureData(
        figure_id="Figure 2",
        title="Coefficient of Variation of the Aggregated TCP Traffic",
        xlabel="number of clients",
        ylabel="coefficient of variation",
    )
    client_counts = sorted(
        {m.n_clients for metrics in sweep.values() for m in metrics}
    )
    figure.add_series(
        "Poisson",
        [float(n) for n in client_counts],
        [
            poisson_aggregate_cov(n, base.per_client_rate, base.effective_bin_width)
            for n in client_counts
        ],
    )
    for label, xy in _series_from_sweep(sweep, "cov").items():
        figure.add_series(label, *xy)
    return figure


def run_largen_sweep(
    client_counts: Sequence[int] = LARGEN_CLIENT_COUNTS,
    base: Optional[ScenarioConfig] = None,
    protocols: Mapping[str, Tuple[str, str]] = LARGEN_PROTOCOLS,
    processes: Optional[int] = None,
    **runner_kwargs,
) -> SweepData:
    """Figure 2's c.o.v.-vs-N sweep pushed out to N=500.

    The paper stops at 60 clients; this grid probes the large-N regime
    where mean-field models predict the interesting aggregate behavior.
    """
    return run_protocol_sweep(
        client_counts,
        base=base or paper_config(),
        protocols=protocols,
        processes=processes,
        **runner_kwargs,
    )


def figure_largen_cov(
    sweep: SweepData, base: Optional[ScenarioConfig] = None
) -> FigureData:
    """The large-N c.o.v. figure: Figure 2's axes, client counts to 500.

    The Poisson reference series makes the paper's point at scale: the
    analytic 1/sqrt(N) curve keeps falling while the TCP series flatten
    out (congestion control re-correlates the aggregate).
    """
    figure = figure2_cov(sweep, base)
    figure.figure_id = "Figure 2 (large N)"
    figure.title = "C.o.v. of the Aggregated Traffic, N to 500"
    return figure


def run_fluid_sweep(
    client_counts: Sequence[int] = FLUID_CLIENT_COUNTS,
    base: Optional[ScenarioConfig] = None,
    protocols: Mapping[str, Tuple[str, str]] = FLUID_PROTOCOLS,
    processes: Optional[int] = None,
    **runner_kwargs,
) -> SweepData:
    """Figure 2's c.o.v.-vs-N sweep on the mean-field fluid backend.

    The packet engine tops out around N=500-1000 per run; the fluid
    solver's cost is independent of N, so this grid extends the
    burstiness curve to N=10^6 (the ROADMAP's millions-of-users regime)
    in seconds.  The backend knob is in the config digest, so fluid
    cells cache separately from packet cells of the same grid.
    """
    base = base or paper_config()
    return run_protocol_sweep(
        client_counts,
        base=base.with_(backend="fluid"),
        protocols=protocols,
        processes=processes,
        **runner_kwargs,
    )


def figure_fluid_cov(
    sweep: SweepData, base: Optional[ScenarioConfig] = None
) -> FigureData:
    """The mean-field c.o.v. figure: Figure 2's axes out to N=10^6.

    The Poisson reference keeps falling as 1/sqrt(N) until the link
    saturates (above the congestion knee the aggregate rate -- and with
    it the per-bin count -- stops growing with N, flooring the sampling
    c.o.v. near 1/sqrt(C * bin)); the TCP curves sit above that floor
    because the congestion-control limit cycle survives the N ->
    infinity limit: burstiness is not averaged away.
    """
    figure = figure2_cov(sweep, base)
    figure.figure_id = "Figure 2 (fluid, large N)"
    figure.title = "C.o.v. of the Aggregated Traffic, mean-field N to 1e6"
    return figure


def run_hybrid_sweep(
    client_counts: Sequence[int] = HYBRID_CLIENT_COUNTS,
    base: Optional[ScenarioConfig] = None,
    protocols: Mapping[str, Tuple[str, str]] = FLUID_PROTOCOLS,
    foreground: int = 10,
    processes: Optional[int] = None,
    **runner_kwargs,
) -> SweepData:
    """Figure 2's c.o.v.-vs-N sweep on the hybrid fluid/packet backend.

    Every cell keeps ``foreground`` packet-exact flows against a fluid
    background of the remaining ``n - foreground`` clients, so the
    measured c.o.v. is *packet-level* -- binned arrival counts of real
    foreground packets at the gateway -- at ambient client counts out to
    N=10^6 that only the fluid background makes affordable.  The hybrid
    knobs are in the config digest, so these cells cache separately
    from packet and fluid cells of the same grid.
    """
    base = base or paper_config()
    return run_protocol_sweep(
        client_counts,
        base=base.with_(backend="hybrid", hybrid_foreground_flows=foreground),
        protocols=protocols,
        processes=processes,
        **runner_kwargs,
    )


def figure_hybrid_cov(
    sweep: SweepData,
    base: Optional[ScenarioConfig] = None,
    foreground: int = 10,
) -> FigureData:
    """Foreground (packet-measured) c.o.v. vs ambient N, to N=10^6.

    The reference series is the K-flow Poisson c.o.v. -- constant in
    ambient N, because the foreground population never grows.  Any rise
    of the TCP series above that flat line as N climbs is congestion
    feedback from the shared gateway: the background limit cycle
    modulates what the K real flows experience, which is the paper's
    burstiness mechanism seen from inside a flow.
    """
    base = base or paper_config()
    figure = FigureData(
        figure_id="Figure 2 (hybrid, large N)",
        title=f"C.o.v. of {foreground} packet-level foreground flows, ambient N to 1e6",
        xlabel="number of clients",
        ylabel="coefficient of variation",
    )
    client_counts = sorted(
        {m.n_clients for metrics in sweep.values() for m in metrics}
    )
    figure.add_series(
        f"Poisson ({foreground} flows)",
        [float(n) for n in client_counts],
        [
            poisson_aggregate_cov(
                foreground, base.per_client_rate, base.effective_bin_width
            )
            for _ in client_counts
        ],
    )
    for label, xy in _series_from_sweep(sweep, "cov").items():
        figure.add_series(label, *xy)
    return figure


def _per_flow_series(
    sweep: SweepData, attribute: str, min_clients: int
) -> Dict[str, Tuple[List[float], List[float]]]:
    """Series of ``attribute / measured flows`` vs client count.

    The divisor is ``measured_flows`` when the record carries one (K for
    hybrid cells, N for packet cells) and ``n_clients`` otherwise
    (fluid cells and pre-hybrid records, whose aggregates cover all N
    flows), which is what makes one y-axis comparable across backends.
    """
    series: Dict[str, Tuple[List[float], List[float]]] = {}
    for key, metrics in sweep.items():
        if not metrics:
            continue
        label = metrics[0].label
        points = [
            (float(m.n_clients),
             float(getattr(m, attribute)) / max(m.measured_flows or m.n_clients, 1))
            for m in metrics
            if m.n_clients >= min_clients and not m.failed
        ]
        if points:
            series[label] = ([x for x, _ in points], [y for _, y in points])
    return series


def figure3_throughput_per_flow(
    sweep: SweepData, min_clients: int = 0
) -> FigureData:
    """Figure 3 analogue for any backend: per-flow delivered packets.

    The paper's Figure 3 plots the aggregate total, which only the
    packet backend measures per flow; normalizing by the measured flow
    count puts packet (all N flows), fluid (the aggregate over N), and
    hybrid (K foreground flows) sweeps on one comparable axis.
    """
    figure = FigureData(
        figure_id="Figure 3 (per flow)",
        title="Per-flow Throughput of the TCP Traffic",
        xlabel="number of clients",
        ylabel="packets successfully transmitted per flow",
    )
    for label, (xs, ys) in _per_flow_series(
        sweep, "throughput_packets", min_clients
    ).items():
        figure.add_series(label, xs, ys)
    return figure


def figure4_drops_per_flow(
    sweep: SweepData, min_clients: int = 0
) -> FigureData:
    """Figure 4 analogue for any backend: per-flow gateway drop counts.

    Loss percentage is already population-size-free, so this figure
    plots the complementary absolute count: how many of each measured
    flow's packets the gateway dropped, comparable across packet, fluid,
    and hybrid sweeps via the per-flow normalization.
    """
    figure = FigureData(
        figure_id="Figure 4 (per flow)",
        title="Per-flow Packet Drops of the TCP Traffic",
        xlabel="number of clients",
        ylabel="gateway drops per flow",
    )
    for label, (xs, ys) in _per_flow_series(
        sweep, "gateway_drops", min_clients
    ).items():
        figure.add_series(label, xs, ys)
    return figure


def figure3_throughput(sweep: SweepData, min_clients: int = 30) -> FigureData:
    """Figure 3: total packets successfully transmitted vs clients."""
    figure = FigureData(
        figure_id="Figure 3",
        title="Throughput of the Aggregated TCP Traffic",
        xlabel="number of clients",
        ylabel="total packets successfully transmitted",
    )
    for label, (xs, ys) in _series_from_sweep(
        sweep, "throughput_packets", keys=[k for k in TCP_ONLY_PROTOCOLS if k in sweep]
    ).items():
        kept = [(x, y) for x, y in zip(xs, ys) if x >= min_clients]
        if kept:
            figure.add_series(label, [x for x, _ in kept], [y for _, y in kept])
    return figure


def figure4_loss(sweep: SweepData, min_clients: int = 30) -> FigureData:
    """Figure 4: packet loss percentage vs clients."""
    figure = FigureData(
        figure_id="Figure 4",
        title="Packet Loss Percentage of the Aggregated TCP Traffic",
        xlabel="number of clients",
        ylabel="packet loss percentage (%)",
    )
    for label, (xs, ys) in _series_from_sweep(
        sweep, "loss_percent", keys=[k for k in TCP_ONLY_PROTOCOLS if k in sweep]
    ).items():
        kept = [(x, y) for x, y in zip(xs, ys) if x >= min_clients]
        if kept:
            figure.add_series(label, [x for x, _ in kept], [y for _, y in kept])
    return figure


def figure13_timeout_ratio(sweep: SweepData, min_clients: int = 30) -> FigureData:
    """Figure 13: ratio of timeouts to duplicate ACKs vs clients."""
    figure = FigureData(
        figure_id="Figure 13",
        title="Ratio of Timeouts to Duplicate ACKs",
        xlabel="number of clients",
        ylabel="timeout/duplicate-ACK ratio",
    )
    for label, (xs, ys) in _series_from_sweep(
        sweep,
        "timeout_dupack_ratio",
        keys=[k for k in TCP_ONLY_PROTOCOLS if k in sweep],
    ).items():
        kept = [(x, y) for x, y in zip(xs, ys) if x >= min_clients]
        if kept:
            figure.add_series(label, [x for x, _ in kept], [y for _, y in kept])
    return figure


# The transport/gateway combinations the application-workload
# comparison sweeps (benchmarks/bench_app_workloads.py): the paper's
# headline contrast (Reno vs Vegas vs the uncontrolled UDP baseline)
# under both FIFO and RED gateways.
WORKLOAD_PROTOCOLS: Dict[str, Tuple[str, str]] = {
    "udp": ("udp", "fifo"),
    "reno": ("reno", "fifo"),
    "reno_red": ("reno", "red"),
    "vegas": ("vegas", "fifo"),
    "vegas_red": ("vegas", "red"),
}


def run_workload_sweep(
    client_counts: Sequence[int],
    workload: str,
    base: Optional[ScenarioConfig] = None,
    protocols: Mapping[str, Tuple[str, str]] = WORKLOAD_PROTOCOLS,
    processes: Optional[int] = None,
    **runner_kwargs,
) -> SweepData:
    """Run a (protocol x client-count) grid under a closed-loop workload.

    The same grid shape as :func:`run_protocol_sweep`, but every cell
    runs the given ``workload`` ("rpc", "bsp" or "bulk"), so the
    resulting :class:`ScenarioMetrics` carry job-level ``app_*`` fields
    alongside the packet-level c.o.v./throughput/loss columns.
    """
    base = base or paper_config()
    return run_protocol_sweep(
        client_counts,
        base=base.with_(workload=workload),
        protocols=protocols,
        processes=processes,
        **runner_kwargs,
    )


def figure_workload_latency(sweep: SweepData, workload: str = "rpc") -> FigureData:
    """Job-level latency vs client count for a closed-loop sweep.

    Plots the workload's natural completion-time metric: p99 request
    latency for RPC, mean barrier stall for BSP, mean job completion
    time for bulk transfers.
    """
    attribute, ylabel = {
        "rpc": ("app_latency_p99", "p99 request latency (s)"),
        "bsp": ("app_barrier_stall_mean", "mean barrier stall (s)"),
        "bulk": ("app_job_time_mean", "mean job completion time (s)"),
    }[workload]
    figure = FigureData(
        figure_id=f"Workload {workload}",
        title=f"Application-level latency under the {workload} workload",
        xlabel="number of clients",
        ylabel=ylabel,
    )
    for label, xy in _series_from_sweep(sweep, attribute).items():
        figure.add_series(label, *xy)
    return figure


def cwnd_trace_experiment(
    protocol: str,
    n_clients: int,
    flows: Optional[Sequence[int]] = None,
    base: Optional[ScenarioConfig] = None,
    queue: str = "fifo",
    duration: Optional[float] = None,
) -> ScenarioResult:
    """One run with congestion-window tracing (Figures 5-12).

    The paper traces three spread-out client streams per snapshot
    (e.g. clients 1, 10 and 20 of 20); by default we trace the first,
    middle and last flow.
    """
    base = base or paper_config()
    if flows is None:
        flows = sorted({0, n_clients // 2, n_clients - 1})
    config = base.with_(
        protocol=protocol,
        queue=queue,
        n_clients=n_clients,
        trace_cwnd_flows=tuple(flows),
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


def run_forensics_sweep(
    client_counts: Sequence[int] = FORENSICS_CLIENT_COUNTS,
    base: Optional[ScenarioConfig] = None,
    protocols: Mapping[str, Tuple[str, str]] = FORENSICS_PROTOCOLS,
    processes: Optional[int] = None,
    cache=None,
    **runner_kwargs,
) -> SweepData:
    """The burstiness-forensics grid: protocol x AQM x client count.

    Runs Figure 2's axes with forensics enabled so every cell carries
    the sweep-grade burst summary (``forensic_burst_rate``,
    ``forensic_sync_linked_fraction``, ...).  Forensics instruments the
    packet engine, so the backend is pinned to ``packet``; the buffer is
    widened to give RED's early-drop region headroom over its
    thresholds.

    The forensics knobs are digest-excluded (enabling a pure observer
    must not invalidate cached physics), which cuts both ways: a cache
    populated by a forensics-free sweep satisfies these cells with
    records that lack the forensic columns.  Cells whose cached metrics
    carry no forensics marker (NaN ``forensic_burst_rate``) are
    therefore re-run cache-blind and the refreshed record overwrites
    the cache entry.
    """
    if base is None:
        base = paper_config().with_(buffer_capacity=100)
    base = base.with_(backend="packet", forensics=True)
    sweep = run_protocol_sweep(
        client_counts,
        base=base,
        protocols=protocols,
        processes=processes,
        cache=cache,
        **runner_kwargs,
    )
    if cache is None:
        return sweep
    # Backfill pass: refresh stale (pre-forensics) cache hits.
    stale: List[Tuple[str, int, ScenarioConfig]] = []
    for key, metrics in sweep.items():
        protocol, queue = protocols[key]
        for pos, metric in enumerate(metrics):
            if metric.failed or math.isfinite(metric.forensic_burst_rate):
                continue
            stale.append(
                (
                    key,
                    pos,
                    base.with_(
                        protocol=protocol,
                        queue=queue,
                        n_clients=metric.n_clients,
                    ),
                )
            )
    if not stale:
        return sweep
    refreshed = run_many(
        [config for _, _, config in stale],
        processes=processes,
        cache=None,
        **runner_kwargs,
    )
    for (key, pos, config), metric in zip(stale, refreshed):
        sweep[key][pos] = metric
        if not metric.failed:
            cache.put(config, metric)
    return sweep


def figure_forensics_sweep(
    sweep: SweepData, attribute: str = "forensic_burst_rate"
) -> FigureData:
    """Burstiness forensics vs N, one series per protocol x AQM.

    With the default attribute this is the figure the paper's mechanism
    story predicts: droptail burst rate climbs with N as the shared
    buffer saturates more often, while RED's early dropping keeps its
    curve flat or falling.  ``forensic_sync_linked_fraction`` plots the
    companion diagnosis -- what share of those bursts follow a
    loss-synchronization event.
    """
    labels = {
        "forensic_burst_rate": "burst episodes per second",
        "forensic_sync_linked_fraction": "fraction of bursts sync-linked",
        "forensic_drop_share": "fraction of drops inside bursts",
        "forensic_burst_duration_mean": "mean burst duration (s)",
    }
    figure = FigureData(
        figure_id=f"figF sweep ({attribute})",
        title="burst forensics across the protocol sweep",
        xlabel="number of clients",
        ylabel=labels.get(attribute, attribute),
    )
    for label, (xs, ys) in _series_from_sweep(sweep, attribute).items():
        kept = [(x, y) for x, y in zip(xs, ys) if math.isfinite(y)]
        if kept:
            figure.add_series(label, [x for x, _ in kept], [y for _, y in kept])
    return figure
