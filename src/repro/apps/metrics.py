"""Job-level metrics of a closed-loop application workload.

:class:`AppMetrics` is the flat, picklable summary of what the
*application* experienced in one run -- request latency percentiles,
job completion times, barrier stalls, achieved vs. offered work rate --
complementing the packet-level c.o.v./throughput/loss metrics the paper
reports.  It is carried on :class:`~repro.experiments.results.
ScenarioResult` and flattened into :class:`~repro.experiments.results.
ScenarioMetrics` for sweeps, CSV/JSON export, and the figures layer.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Sequence

import numpy as np

_NAN = float("nan")


def _percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return _NAN
    return float(np.percentile(np.asarray(values, dtype=float), q))


@dataclass(frozen=True)
class AppMetrics:
    """What the application saw: one run's job-level summary."""

    workload: str
    # Work-unit accounting (requests / shuffles / jobs, by workload).
    units_issued: int = 0
    units_completed: int = 0
    units_failed: int = 0
    app_packets: int = 0
    # Request/response latency (RPC; issue to response arrival).
    latency_mean: float = _NAN
    latency_p50: float = _NAN
    latency_p99: float = _NAN
    latency_max: float = _NAN
    # Job completion time (bulk transfers).
    job_time_mean: float = _NAN
    job_time_p50: float = _NAN
    job_time_max: float = _NAN
    # Barrier behaviour (BSP).
    supersteps: int = 0
    barrier_stall_mean: float = _NAN
    barrier_stall_max: float = _NAN
    barrier_stall_total: float = 0.0
    # Throughput of the closed loop: completions vs. issues per second.
    offered_unit_rate: float = _NAN
    achieved_unit_rate: float = _NAN

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_workloads(
        cls,
        workload: str,
        apps: Sequence[Any],
        duration: float,
        supersteps: int = 0,
    ) -> "AppMetrics":
        """Aggregate per-flow workload objects into one summary."""
        latencies: List[float] = []
        job_times: List[float] = []
        stalls: List[float] = []
        issued = completed = failed = packets = 0
        for app in apps:
            issued += app.units_issued
            completed += app.units_completed
            failed += app.units_failed
            packets += app.generated
            latencies.extend(getattr(app, "request_latencies", ()))
            job_times.extend(getattr(app, "job_times", ()))
            stalls.extend(getattr(app, "barrier_stalls", ()))
        return cls(
            workload=workload,
            units_issued=issued,
            units_completed=completed,
            units_failed=failed,
            app_packets=packets,
            latency_mean=(sum(latencies) / len(latencies)) if latencies else _NAN,
            latency_p50=_percentile(latencies, 50.0),
            latency_p99=_percentile(latencies, 99.0),
            latency_max=max(latencies) if latencies else _NAN,
            job_time_mean=(sum(job_times) / len(job_times)) if job_times else _NAN,
            job_time_p50=_percentile(job_times, 50.0),
            job_time_max=max(job_times) if job_times else _NAN,
            supersteps=supersteps,
            barrier_stall_mean=(sum(stalls) / len(stalls)) if stalls else _NAN,
            barrier_stall_max=max(stalls) if stalls else _NAN,
            barrier_stall_total=sum(stalls),
            offered_unit_rate=issued / duration if duration > 0 else _NAN,
            achieved_unit_rate=completed / duration if duration > 0 else _NAN,
        )

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (for CSV/JSON export)."""
        return asdict(self)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line human-readable summary, workload-appropriate."""
        unit = {"rpc": "request", "bsp": "shuffle", "bulk": "job"}.get(
            self.workload, "unit"
        )
        lines = [
            f"application workload: {self.workload}",
            f"  {unit}s issued/completed/failed = "
            f"{self.units_issued}/{self.units_completed}/{self.units_failed} "
            f"({self.app_packets} packets)",
            f"  achieved {unit} rate = {self.achieved_unit_rate:.3f}/s "
            f"(offered {self.offered_unit_rate:.3f}/s)",
        ]
        if math.isfinite(self.latency_mean):
            lines.append(
                f"  request latency mean/p50/p99/max = "
                f"{self.latency_mean:.4f}/{self.latency_p50:.4f}/"
                f"{self.latency_p99:.4f}/{self.latency_max:.4f} s"
            )
        if math.isfinite(self.job_time_mean):
            lines.append(
                f"  job completion mean/p50/max = "
                f"{self.job_time_mean:.4f}/{self.job_time_p50:.4f}/"
                f"{self.job_time_max:.4f} s"
            )
        if self.supersteps or math.isfinite(self.barrier_stall_mean):
            lines.append(
                f"  supersteps = {self.supersteps}, barrier stall "
                f"mean/max/total = {self.barrier_stall_mean:.4f}/"
                f"{self.barrier_stall_max:.4f}/{self.barrier_stall_total:.4f} s"
            )
        return "\n".join(lines)
