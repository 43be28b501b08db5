"""Heavy-tailed (Pareto) on/off traffic.

The self-similarity literature the paper responds to (Leland et al.,
Park/Kim/Crovella, Willinger et al.) attributes aggregate burstiness to
heavy-tailed activity periods: superposing many on/off sources whose
ON (or OFF) durations are Pareto with shape 1 < a < 2 yields asymptotic
self-similarity.  This source provides that workload for the ablation
contrasting "burstiness from heavy tails" with "burstiness from TCP".

During an ON period the source emits packets at a fixed peak rate; OFF
periods are silent.  ON and OFF durations are drawn from Pareto
distributions parameterized by (shape, mean).
"""

from __future__ import annotations

import random

from repro.sim.engine import Simulator
from repro.traffic.base import TrafficSource
from repro.transport.base import Agent


def pareto_scale_for_mean(mean: float, shape: float) -> float:
    """Scale (minimum) of a Pareto distribution with the given mean.

    For Pareto(scale ``x_m``, shape ``a > 1``), the mean is
    ``a * x_m / (a - 1)``; solve for ``x_m``.
    """
    if shape <= 1:
        raise ValueError("a Pareto mean only exists for shape > 1")
    if mean <= 0:
        raise ValueError("mean must be positive")
    return mean * (shape - 1.0) / shape


def pareto_variate(rng: random.Random, scale: float, shape: float) -> float:
    """Draw Pareto(scale, shape) via inverse transform."""
    u = rng.random()
    while u <= 0.0:  # guard against an exact zero from the generator
        u = rng.random()
    return scale * u ** (-1.0 / shape)


class ParetoOnOffSource(TrafficSource):
    """Pareto on/off packet generator.

    Args:
        peak_gap: inter-packet gap during ON periods (peak rate = 1/gap).
        mean_on / mean_off: mean durations of ON and OFF periods.
        shape_on / shape_off: Pareto shape parameters; values in (1, 2)
            give infinite variance and long-range-dependent aggregates.
    """

    def __init__(
        self,
        sim: Simulator,
        agent: Agent,
        rng: random.Random,
        peak_gap: float = 0.01,
        mean_on: float = 0.5,
        mean_off: float = 4.5,
        shape_on: float = 1.5,
        shape_off: float = 1.5,
        name: str = "pareto-onoff",
    ) -> None:
        if peak_gap <= 0:
            raise ValueError("peak gap must be positive")
        super().__init__(sim, agent, name)
        self._rng = rng
        self.peak_gap = peak_gap
        self.shape_on = shape_on
        self.shape_off = shape_off
        self.scale_on = pareto_scale_for_mean(mean_on, shape_on)
        self.scale_off = pareto_scale_for_mean(mean_off, shape_off)
        self._on_until = 0.0
        self.on_periods = 0

    def _next_gap(self) -> float:
        # Still inside the current ON period: emit at peak rate.
        if self.sim.now + self.peak_gap <= self._on_until:
            return self.peak_gap
        # Otherwise sleep through an OFF period and start a new ON period.
        off = pareto_variate(self._rng, self.scale_off, self.shape_off)
        on = pareto_variate(self._rng, self.scale_on, self.shape_on)
        self.on_periods += 1
        self._on_until = self.sim.now + off + on
        return off
