"""What one cell returns: the full result and its flat sweep record.

:class:`ScenarioResult` carries arrays and traces -- every backend
(packet, fluid, hybrid) returns one; sweeps over dozens of runs keep
only :class:`ScenarioMetrics`, a flat summary that pickles cheaply
across worker processes and serializes to CSV/JSON directly.  This
module imports no engine, so the solvers, the result cache and the
figure and claim readers sit above it.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import jains_fairness_index
from repro.analysis.tables import format_table
from repro.core.dependence import DependenceReport, dependence_report
from repro.core.modulation import ModulationReport, modulation_report
from repro.experiments.config import ScenarioConfig

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.apps.metrics import AppMetrics
    from repro.forensics.report import ForensicsReport
    from repro.obs.bundle import ObsBundle


@dataclass
class FlowSummary:
    """Per-flow outcome: what one client's connection achieved."""

    flow_id: int
    app_packets: int
    packets_sent: int
    retransmits: int
    delivered_unique: int
    timeouts: int
    fast_retransmits: int
    dupacks: int
    mean_latency: float = 0.0  # application-to-ACK, seconds
    max_latency: float = 0.0


@dataclass
class ScenarioResult:
    """Every measurement of one run.

    The reports derived from what it stores -- ``modulation``,
    ``dependence()``, ``cwnd_traces()`` -- are built on call: a sweep
    that keeps only :class:`ScenarioMetrics` pays for none of them.
    """

    config: ScenarioConfig
    # The paper's headline measure (Figure 2).
    cov: float
    offered_cov: float
    analytic_cov: float
    # Throughput and loss (Figures 3 and 4).
    throughput_packets: int
    throughput_pps: float
    loss_percent: float
    gateway_arrivals: int
    gateway_drops: int
    # Recovery accounting (Figure 13).
    timeouts: int
    fast_retransmits: int
    dupacks: int
    # Application-to-ACK latency aggregated over completed packets.
    mean_latency: float
    max_latency: float
    # Derived artifacts.
    bin_counts: np.ndarray
    offered_bin_counts: np.ndarray
    per_flow: List[FlowSummary]
    mean_queue_length: float
    red_marks: int
    utilization: float
    events_executed: int
    # Each flow's gateway counts, row = flow id, whose column sums are
    # ``bin_counts``; None for the fluid backend, which has no flows.
    per_flow_bin_counts: Optional[np.ndarray] = None
    # Job-level application metrics (closed-loop workloads only).
    app: Optional[AppMetrics] = None
    # Flight-recorder telemetry (see repro.obs).  ``wall_time`` and
    # ``peak_rss_kb`` are always measured; ``obs`` is populated when the
    # config enabled any trace category or the engine profiler.
    # ``peak_rss_kb`` is the process's high-water mark when the cell
    # ends (``obs.engineprof.peak_rss_kb``), not a per-cell peak: after
    # a larger cell in the same process it reports that cell's peak.
    wall_time: float = field(default=float("nan"))
    peak_rss_kb: float = field(default=float("nan"))
    obs: Optional[ObsBundle] = None
    # Burst forensics report (see repro.forensics); populated when the
    # config enabled ``forensics``.
    forensics: Optional[ForensicsReport] = None
    # The flow engine that produced this result ("object" or "batch";
    # empty for the fluid backend, which has no flows).  Differs from
    # ``config.resolved_engine()`` only after a tie-guard fallback.
    engine: str = ""

    @property
    def modulation(self) -> Optional[ModulationReport]:
        """Offered-vs-transported burstiness of this run's aggregate
        counts, built on call (None for the fluid backend, which has no
        per-flow matrix and so no transported counts of its own)."""
        if self.per_flow_bin_counts is None:
            return None
        reference = self.analytic_cov if math.isfinite(self.analytic_cov) else None
        return modulation_report(self.offered_bin_counts, self.bin_counts, reference)

    def dependence(self) -> Optional[DependenceReport]:
        """Cross-stream dependence of the per-flow gateway counts, in
        flow-id order (None with fewer than two rows, or fewer than two
        bins: the autocorrelation needs two)."""
        rows = self.per_flow_bin_counts
        if rows is None or len(rows) < 2 or len(self.bin_counts) < 2:
            return None
        return dependence_report(rows)

    def cwnd_traces(
        self, flows: Optional[Iterable[int]] = None
    ) -> Dict[int, List[Tuple[float, float]]]:
        """``{flow: [(time, cwnd), ...]}`` of ``flows`` (those the run
        has; default every probed flow): the flight recorder's cwnd rows
        where the window changed, built on call.  Empty unless
        ``obs_trace`` has ``"cwnd"``."""
        probes = self.obs.flows if self.obs is not None else {}
        traces = {}
        for flow in sorted(probes) if flows is None else flows:
            if flow in probes and len(probes[flow].cwnd):
                times, cwnds = (np.array(c) for c in probes[flow].cwnd.data[:2])
                keep = np.r_[True, cwnds[1:] != cwnds[:-1]]
                traces[flow] = list(zip(times[keep].tolist(), cwnds[keep].tolist()))
        return traces

    @property
    def timeout_dupack_ratio(self) -> float:
        """Figure 13's y-axis: timeouts per duplicate ACK received."""
        if self.dupacks == 0:
            return 0.0
        return self.timeouts / self.dupacks

    @property
    def timeout_fastrtx_ratio(self) -> float:
        """Timeout recoveries per fast-retransmit recovery."""
        if self.fast_retransmits == 0:
            return float("inf") if self.timeouts else 0.0
        return self.timeouts / self.fast_retransmits

    @property
    def delivered_per_flow(self) -> np.ndarray:
        """Unique packets delivered, per flow (fairness analysis)."""
        return np.array([f.delivered_unique for f in self.per_flow], dtype=float)


@dataclass(frozen=True, eq=False)
class ScenarioMetrics:
    """One sweep point: the numbers the paper's figures plot.

    ``error`` is empty for a successful run; a failed sweep cell (crash
    or timeout that exhausted its retries) is recorded as a placeholder
    whose numeric fields are NaN/zero and whose ``error`` holds the
    failure description, so one bad cell never aborts a whole grid.

    Equality treats NaN as equal to NaN: many fields are legitimately
    NaN (app metrics on open-loop runs, TCP ratios on UDP runs) and a
    cache round-trip must compare equal to the record it stored.
    Equality also ignores the wall-clock telemetry fields (they vary
    between identical runs); it compares simulated outcomes.
    """

    #: Wall-clock-dependent telemetry: nondeterministic between
    #: identical runs, so excluded from __eq__/__hash__.  The event
    #: count joins them because it measures the engine, not the
    #: physics: the batch engine fuses several object-engine events
    #: into one, so identical simulated outcomes legitimately differ
    #: in events executed (tests/test_batch_differential.py) -- and
    #: the name of that engine joins for the same reason.
    _WALL_CLOCK_FIELDS = frozenset(
        {
            "perf_wall_time",
            "perf_engine",
            "perf_events_executed",
            "perf_events_per_sec",
            "perf_sim_wall_ratio",
            "perf_peak_rss_kb",
        }
    )

    protocol: str
    queue: str
    label: str
    n_clients: int
    seed: int
    duration: float
    cov: float
    offered_cov: float
    analytic_cov: float
    throughput_packets: int
    throughput_pps: float
    utilization: float
    loss_percent: float
    gateway_arrivals: int
    gateway_drops: int
    timeouts: int
    fast_retransmits: int
    dupacks: int
    timeout_dupack_ratio: float
    timeout_fastrtx_ratio: float
    mean_queue_length: float
    red_marks: int
    fairness: float
    mean_latency: float
    max_latency: float
    #: Which solver produced this row ("packet", "fluid", or "hybrid");
    #: the default covers records written by pre-backend versions.
    backend: str = "packet"
    #: How many flows the per-flow metrics summarize: n_clients for the
    #: packet backend, 0 for fluid (the limit has no individual flows),
    #: and K = hybrid_foreground_flows for the hybrid backend (whose
    #: cov/throughput/loss are foreground-scoped).  The default covers
    #: pre-hybrid records.
    measured_flows: int = 0
    # Job-level application metrics (closed-loop workloads; the fields
    # default to empty/NaN for open-loop runs and records written by
    # pre-workload versions of this code).
    app_workload: str = ""
    app_units_issued: int = 0
    app_units_completed: int = 0
    app_units_failed: int = 0
    app_latency_mean: float = float("nan")
    app_latency_p50: float = float("nan")
    app_latency_p99: float = float("nan")
    app_job_time_mean: float = float("nan")
    app_job_time_max: float = float("nan")
    app_supersteps: int = 0
    app_barrier_stall_mean: float = float("nan")
    app_barrier_stall_max: float = float("nan")
    app_achieved_unit_rate: float = float("nan")
    # Run-level telemetry from the flight recorder (see repro.obs).
    # perf_* summarize the engine's own performance; obs_* count what
    # the enabled trace categories captured.  Defaults cover records
    # written by pre-observability code.
    perf_wall_time: float = float("nan")
    #: The flow engine that ran the cell ("object"/"batch"; empty for
    #: fluid cells and records written before the default dispatch).
    perf_engine: str = ""
    perf_events_executed: int = 0
    perf_events_per_sec: float = float("nan")
    perf_sim_wall_ratio: float = float("nan")
    #: The process's RSS high-water mark when the cell ended, in kB --
    #: a larger cell run earlier by the same process (a serial sweep,
    #: a pooled worker) shows through, so it is not a per-cell peak.
    perf_peak_rss_kb: float = float("nan")
    obs_cwnd_samples: int = 0
    obs_rtt_samples: int = 0
    obs_queue_samples: int = 0
    obs_drop_events: int = 0
    obs_state_transitions: int = 0
    # Burst-forensics summary (see repro.forensics); defaults cover
    # runs without forensics enabled and records from older versions.
    forensic_bursts: int = 0
    forensic_sync_events: int = 0
    forensic_sync_linked: int = 0
    forensic_burst_time_fraction: float = float("nan")
    forensic_precision_at_k: float = float("nan")
    forensic_top_flow: int = -1
    forensic_top_flow_share: float = float("nan")
    # Sweep-grade burstiness summary (PR 8): compact per-cell scalars
    # the forensics sweep figures plot across N x protocol x AQM.
    # ``forensic_burst_rate`` is finite (0.0 with no bursts) whenever
    # forensics ran and NaN otherwise -- the runner and the result
    # cache use that as the "this cell carries forensics" marker.
    forensic_burst_rate: float = float("nan")
    forensic_burst_duration_mean: float = float("nan")
    forensic_drop_share: float = float("nan")
    forensic_sync_linked_fraction: float = float("nan")
    error: str = ""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScenarioMetrics):
            return NotImplemented
        for spec in fields(self):
            if spec.name in self._WALL_CLOCK_FIELDS:
                continue
            mine = getattr(self, spec.name)
            theirs = getattr(other, spec.name)
            if mine == theirs:
                continue
            both_nan = (
                isinstance(mine, float)
                and isinstance(theirs, float)
                and math.isnan(mine)
                and math.isnan(theirs)
            )
            if not both_nan:
                return False
        return True

    def __hash__(self) -> int:
        # NaN is normalized to a sentinel so equal records (under the
        # NaN-tolerant __eq__ above) always hash alike.
        return hash(
            tuple(
                0.0 if isinstance(value, float) and math.isnan(value) else value
                for value in (
                    getattr(self, spec.name)
                    for spec in fields(self)
                    if spec.name not in self._WALL_CLOCK_FIELDS
                )
            )
        )

    @property
    def failed(self) -> bool:
        """Whether this cell is an error placeholder, not a real run."""
        return bool(self.error)

    @classmethod
    def from_result(cls, result: ScenarioResult) -> "ScenarioMetrics":
        """Flatten a full :class:`ScenarioResult`."""
        config = result.config
        delivered = result.delivered_per_flow
        fairness = (
            jains_fairness_index(delivered) if delivered.size else float("nan")
        )
        app_kwargs = {}
        if result.app is not None:
            app = result.app
            app_kwargs = {
                "app_workload": app.workload,
                "app_units_issued": app.units_issued,
                "app_units_completed": app.units_completed,
                "app_units_failed": app.units_failed,
                "app_latency_mean": app.latency_mean,
                "app_latency_p50": app.latency_p50,
                "app_latency_p99": app.latency_p99,
                "app_job_time_mean": app.job_time_mean,
                "app_job_time_max": app.job_time_max,
                "app_supersteps": app.supersteps,
                "app_barrier_stall_mean": app.barrier_stall_mean,
                "app_barrier_stall_max": app.barrier_stall_max,
                "app_achieved_unit_rate": app.achieved_unit_rate,
            }
        obs_kwargs: Dict[str, Any] = {}
        if result.obs is not None:
            obs = result.obs
            obs_kwargs = {
                "obs_cwnd_samples": obs.n_cwnd_samples,
                "obs_rtt_samples": obs.n_rtt_samples,
                "obs_queue_samples": obs.n_queue_samples,
                "obs_drop_events": obs.n_drop_events,
                "obs_state_transitions": obs.n_state_transitions,
            }
        forensic_kwargs: Dict[str, Any] = {}
        if result.forensics is not None:
            report = result.forensics
            forensic_kwargs = {
                "forensic_bursts": report.n_bursts,
                "forensic_sync_events": report.n_sync_events,
                "forensic_sync_linked": report.n_sync_linked,
                "forensic_burst_time_fraction": report.burst_time_fraction,
                "forensic_precision_at_k": report.precision,
                "forensic_top_flow": report.top_flow,
                "forensic_top_flow_share": report.top_flow_share,
                "forensic_burst_rate": report.burst_rate,
                "forensic_burst_duration_mean": report.burst_duration_mean,
                "forensic_drop_share": (
                    report.burst_drops / result.gateway_drops
                    if result.gateway_drops
                    else float("nan")
                ),
                "forensic_sync_linked_fraction": report.sync_linked_fraction,
            }
        wall = result.wall_time
        events_per_sec = (
            result.events_executed / wall if wall and wall > 0 else float("nan")
        )
        sim_wall_ratio = (
            result.config.duration / wall if wall and wall > 0 else float("nan")
        )
        return cls(
            protocol=config.protocol,
            queue=config.queue,
            label=config.label,
            backend=config.backend,
            measured_flows=len(result.per_flow),
            n_clients=config.n_clients,
            seed=config.seed,
            duration=config.duration,
            cov=result.cov,
            offered_cov=result.offered_cov,
            analytic_cov=result.analytic_cov,
            throughput_packets=result.throughput_packets,
            throughput_pps=result.throughput_pps,
            utilization=result.utilization,
            loss_percent=result.loss_percent,
            gateway_arrivals=result.gateway_arrivals,
            gateway_drops=result.gateway_drops,
            timeouts=result.timeouts,
            fast_retransmits=result.fast_retransmits,
            dupacks=result.dupacks,
            timeout_dupack_ratio=result.timeout_dupack_ratio,
            timeout_fastrtx_ratio=result.timeout_fastrtx_ratio,
            mean_queue_length=result.mean_queue_length,
            red_marks=result.red_marks,
            fairness=fairness,
            mean_latency=result.mean_latency,
            max_latency=result.max_latency,
            perf_wall_time=wall,
            perf_engine=result.engine,
            perf_events_executed=result.events_executed,
            perf_events_per_sec=events_per_sec,
            perf_sim_wall_ratio=sim_wall_ratio,
            perf_peak_rss_kb=result.peak_rss_kb,
            **obs_kwargs,
            **app_kwargs,
            **forensic_kwargs,
        )

    @classmethod
    def failure(cls, config: ScenarioConfig, error: str) -> "ScenarioMetrics":
        """An error-tagged placeholder for a cell that could not run: the
        config's identity fields, every other field at its default, or
        NaN (float) / 0 (int) where it has none."""
        kwargs: Dict[str, Any] = dict(
            protocol=config.protocol,
            queue=config.queue,
            label=config.label,
            backend=config.backend,
            n_clients=config.n_clients,
            seed=config.seed,
            duration=config.duration,
            app_workload=config.workload if config.workload != "open" else "",
            error=error,
        )
        for spec in fields(cls):
            if spec.default is MISSING and spec.name not in kwargs:
                kwargs[spec.name] = _BLANK[spec.type]
        return cls(**kwargs)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (for CSV/JSON export and cache entries).
        Every field is a str, int or float, so reading them off is what
        ``dataclasses.asdict`` returns without its deep-copy recursion."""
        return {name: getattr(self, name) for name in _FIELD_NAMES}

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "ScenarioMetrics":
        """Rebuild from :meth:`as_dict` output (e.g. a cached JSON blob).

        Unknown keys are ignored and missing optional fields take their
        defaults, so records written by older/newer code still load.
        """
        kwargs: Dict[str, Any] = {}
        for spec in fields(cls):
            if spec.name in record:
                value = record[spec.name]
                if spec.type in ("float", float) and value is not None:
                    value = float(value)
                elif spec.type in ("int", int) and value is not None:
                    value = int(value)
                kwargs[spec.name] = value
        return cls(**kwargs)


_FIELD_NAMES = tuple(spec.name for spec in fields(ScenarioMetrics))
#: A failure placeholder's value for a field with no default, by type.
_BLANK = {"float": float("nan"), "int": 0}


def metrics_table(
    metrics: Sequence[ScenarioMetrics],
    columns: Sequence[str] = (
        "label",
        "n_clients",
        "cov",
        "analytic_cov",
        "throughput_packets",
        "loss_percent",
        "timeout_dupack_ratio",
    ),
    title: str = "",
    precision: int = 4,
) -> str:
    """Render selected columns of a metrics list as a text table."""
    rows: List[List[Any]] = []
    for m in metrics:
        record = m.as_dict()
        rows.append([record[c] for c in columns])
    return format_table(list(columns), rows, precision=precision, title=title)
