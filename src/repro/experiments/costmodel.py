"""Per-cell wall-time prediction for sweep scheduling.

A sweep grid is heterogeneous: a Vegas cell at N=500 costs orders of
magnitude more wall time than a UDP cell at N=2.  Launching cells in
input order makes the makespan hostage to whichever big cell happens to
land last; the classic fix is LPT (longest processing time first)
scheduling, which needs a per-cell cost estimate.

:class:`CostModel` predicts a cell's wall time as::

    estimate(config) = alpha[lane] * units(config)

where a *lane* is the ``(backend, protocol, queue, workload)`` tuple
(the knobs that change per-unit cost, not unit count) and ``alpha`` is
learned
from observed wall times: every completed cell refines its lane, cache
hits contribute their recorded ``perf_wall_time``, and a previous run's
JSONL :class:`~repro.experiments.runlog.RunLog` can seed the model
before the first cell launches.  With no observations at all the model
degrades to pure unit-count ordering, which is already a good LPT key
because simulated event count scales with the units.

Packet cells cost ``duration * n_clients`` units (event count grows in
both); fluid cells cost ``duration`` alone -- the mean-field solver's
state is a window density, so its wall time is independent of N.
Hybrid cells cost ``duration * K`` with ``K = hybrid_foreground_flows``:
the event count tracks the K packet-exact foreground flows while the
fluid background is N-independent, so the ambient ``n_clients`` drops
out just as it does for pure fluid.  Keeping ``backend`` in the lane
key means each backend's alpha is learned separately and a mixed grid
is still scheduled LPT-first on sane estimates.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from repro.experiments.config import ScenarioConfig

_Lane = Tuple[str, str, str, str]


def _same_engine(config: ScenarioConfig, recorded: str) -> bool:
    """Whether a wall time recorded on flow engine ``recorded`` speaks
    for ``config``.  The engine is digest-excluded, so a digest match
    alone lets an old log's object-engine seconds stand in for a cell
    that now runs on batch, 2-5x faster; a record without the tag
    predates the default dispatch, when every cell ran on object."""
    return (recorded or "object") == config.resolved_engine()


def cell_units(config: ScenarioConfig) -> float:
    """The size proxy a cost estimate scales with.

    Packet cells: simulated event count grows roughly linearly in both
    the simulated duration and the number of clients, so their product
    is the natural unit of work.  Fluid cells: the ODE solver's step
    count depends on duration only (its state is a window density, not
    N flows), so n_clients drops out of the estimate.  Hybrid cells:
    event count tracks the K packet-exact foreground flows, not the
    fluid ambient N.
    """
    units = max(config.duration, 1e-9)
    if config.backend == "hybrid":
        units *= max(config.hybrid_foreground_flows, 1)
    elif config.backend != "fluid":
        units *= max(config.n_clients, 1)
    return units


class CostModel:
    """Learned wall seconds per cell unit, by scheduling lane."""

    def __init__(self) -> None:
        self._wall: Dict[_Lane, float] = {}
        self._units: Dict[_Lane, float] = {}
        self._total_wall = 0.0
        self._total_units = 0.0

    @staticmethod
    def lane(config: ScenarioConfig) -> _Lane:
        return (config.backend, config.protocol, config.queue, config.workload)

    # ------------------------------------------------------------------
    def observe(self, config: ScenarioConfig, wall_seconds: float) -> None:
        """Fold one completed cell's measured wall time into the model."""
        if not (wall_seconds > 0.0):  # rejects NaN and nonsense
            return
        units = cell_units(config)
        key = self.lane(config)
        self._wall[key] = self._wall.get(key, 0.0) + wall_seconds
        self._units[key] = self._units.get(key, 0.0) + units
        self._total_wall += wall_seconds
        self._total_units += units

    def observe_metrics(self, config: ScenarioConfig, metrics) -> None:
        """Observe a cached :class:`ScenarioMetrics` record, if it
        carries a finite recorded wall time (``perf_wall_time``) taken
        on the engine this cell would run on now."""
        wall = getattr(metrics, "perf_wall_time", None)
        if (
            wall is not None
            and wall == wall
            and wall > 0.0
            and _same_engine(config, getattr(metrics, "perf_engine", ""))
        ):
            self.observe(config, float(wall))

    def seed_from_runlog(
        self,
        events: Iterable[Mapping],
        configs_by_digest: Mapping[str, ScenarioConfig],
    ) -> int:
        """Seed from a previous run's JSONL events (``task_done`` rows
        whose digest matches a config in this grid).  Returns the number
        of observations folded in."""
        seeded = 0
        for event in events:
            if event.get("event") != "task_done":
                continue
            config = configs_by_digest.get(event.get("digest", ""))
            elapsed = event.get("elapsed")
            if config is None or not isinstance(elapsed, (int, float)):
                continue
            if not _same_engine(config, event.get("engine", "")):
                continue
            self.observe(config, float(elapsed))
            seeded += 1
        return seeded

    # ------------------------------------------------------------------
    def alpha(self, config: ScenarioConfig) -> float:
        """Wall seconds per unit for this config's lane (global fallback
        when the lane has no observations; 1.0 when nothing has)."""
        key = self.lane(config)
        units = self._units.get(key, 0.0)
        if units > 0.0:
            return self._wall[key] / units
        if self._total_units > 0.0:
            return self._total_wall / self._total_units
        return 1.0

    def estimate(self, config: ScenarioConfig) -> float:
        """Predicted wall seconds for one cell."""
        return self.alpha(config) * cell_units(config)

    @property
    def observations(self) -> int:
        """How many lanes have at least one observation."""
        return len(self._units)
