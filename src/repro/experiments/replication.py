"""Replicated experiments: many seeds, mean +/- confidence interval.

The paper reports single ns runs; serious reproduction wants error
bars.  :func:`replicate` runs one configuration under R different root
seeds (each seed re-derives every per-component RNG stream, so the
replicas are fully independent) and summarizes each metric with a mean
and a normal-approximation confidence interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.stats import confidence_interval
from repro.analysis.tables import format_table
from repro.experiments.config import ScenarioConfig
from repro.experiments.results import ScenarioMetrics
from repro.experiments.sweep import run_many

#: metrics summarized by default (numeric fields of ScenarioMetrics)
DEFAULT_METRICS = (
    "cov",
    "throughput_packets",
    "loss_percent",
    "timeouts",
    "fast_retransmits",
    "timeout_dupack_ratio",
    "mean_queue_length",
    "fairness",
    "utilization",
)


@dataclass
class MetricSummary:
    """Mean and spread of one metric across replicas."""

    name: str
    mean: float
    std: float
    ci_low: float
    ci_high: float
    values: List[float] = field(default_factory=list)


@dataclass
class ReplicationResult:
    """All replicas of one configuration, summarized."""

    config: ScenarioConfig
    seeds: Tuple[int, ...]
    replicas: List[ScenarioMetrics]
    summaries: Dict[str, MetricSummary]

    def summary(self, metric: str) -> MetricSummary:
        """Summary of one metric (KeyError if not summarized)."""
        return self.summaries[metric]

    def render_table(self, precision: int = 4) -> str:
        """Mean +/- CI table across the summarized metrics."""
        rows = [
            [s.name, s.mean, s.std, s.ci_low, s.ci_high]
            for s in self.summaries.values()
        ]
        return format_table(
            ["metric", "mean", "std", "ci low", "ci high"],
            rows,
            precision=precision,
            title=(
                f"{self.config.label}, {self.config.n_clients} clients: "
                f"{len(self.replicas)} replicas"
            ),
        )


def replicate(
    config: ScenarioConfig,
    n_replicas: int = 5,
    base_seed: int = 1,
    metrics: Sequence[str] = DEFAULT_METRICS,
    level: float = 0.95,
    processes: Optional[int] = 1,
    **runner_kwargs,
) -> ReplicationResult:
    """Run ``config`` under ``n_replicas`` distinct seeds and summarize.

    Seeds are ``base_seed, base_seed+1, ...``; each replica's scenario
    config differs only in its ``seed`` field.  Extra keyword arguments
    (``cache``, ``timeout``, ``retries``, ``run_log``, ...) pass
    through to
    :func:`repro.experiments.sweep.run_many`, so replicated runs cache,
    resume, and schedule (persistent pool, largest ``cell_units``
    first) like any sweep.  Failed replicas (error-tagged placeholders)
    are excluded from the summaries.
    """
    if n_replicas < 1:
        raise ValueError("need at least one replica")
    seeds = tuple(base_seed + i for i in range(n_replicas))
    configs = [config.with_(seed=seed) for seed in seeds]
    replicas = run_many(configs, processes=processes, **runner_kwargs)
    usable = [replica for replica in replicas if not replica.failed] or replicas
    summaries: Dict[str, MetricSummary] = {}
    for name in metrics:
        values = [float(getattr(replica, name)) for replica in usable]
        arr = np.asarray(values)
        if len(usable) >= 2:
            low, high = confidence_interval(arr, level)
        else:
            low = high = float(arr.mean())
        summaries[name] = MetricSummary(
            name=name,
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)) if len(usable) >= 2 else 0.0,
            ci_low=low,
            ci_high=high,
            values=values,
        )
    return ReplicationResult(
        config=config, seeds=seeds, replicas=replicas, summaries=summaries
    )


def compare(
    a: ReplicationResult, b: ReplicationResult, metric: str
) -> Tuple[float, bool]:
    """Difference of means (a - b) and whether the CIs are disjoint.

    Disjoint confidence intervals are a conservative indication that the
    difference is real rather than seed noise.
    """
    summary_a = a.summary(metric)
    summary_b = b.summary(metric)
    difference = summary_a.mean - summary_b.mean
    disjoint = (
        summary_a.ci_low > summary_b.ci_high
        or summary_b.ci_low > summary_a.ci_high
    )
    return difference, disjoint
