"""Running grids of scenarios, optionally in parallel.

This module is the stable, minimal sweep API; the heavy lifting —
the worker pool, wall-clock timeouts, immediate retries, crash
isolation, content-addressed result caching, and JSONL progress
telemetry — lives in :mod:`repro.experiments.runner`.

Workers receive a :class:`ScenarioConfig` (picklable dataclass) and
return a flat :class:`ScenarioMetrics`; the heavyweight arrays never
cross the process boundary.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.experiments.cache import ResultCache
from repro.experiments.config import ScenarioConfig
from repro.experiments.results import ScenarioMetrics
from repro.experiments.runlog import RunLog
from repro.experiments.runner import SweepRunner


def run_many(
    configs: Sequence[ScenarioConfig],
    processes: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    cache: Union[ResultCache, str, None] = None,
    run_log: Optional[RunLog] = None,
    pool: str = "persistent",
) -> List[ScenarioMetrics]:
    """Run every configuration, preserving input order.

    Args:
        configs: the grid to run.
        processes: worker processes; None picks ``min(cpu, len(configs))``,
            and values <= 1 run everything in-process (easier debugging)
            unless ``timeout`` forces a killable pool worker.
        timeout: per-scenario wall-clock limit, seconds (None = none).
        retries: extra attempts per cell after a crash or timeout.
        cache: a :class:`ResultCache` or cache directory path; finished
            cells are stored under their config digest, and re-runs
            (including interrupted sweeps) resume with cache hits.
        run_log: optional :class:`RunLog` for JSONL progress telemetry.
        pool: ``"persistent"``, the only executor (see ``runner.POOLS``).

    Cells launch largest first (``runner.cell_units``), which keeps
    the makespan of heterogeneous grids short.  A cell that keeps failing is returned as an
    error-tagged :class:`ScenarioMetrics` placeholder
    (``metrics.failed`` is True) rather than aborting the rest of the
    grid.
    """
    runner = SweepRunner(
        processes=processes,
        timeout=timeout,
        retries=retries,
        cache=cache,
        run_log=run_log,
        pool=pool,
    )
    return runner.run(configs)

