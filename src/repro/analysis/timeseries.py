"""Time-series utilities for event-sampled traces.

Congestion-window logs are *step series*: (time, value) pairs recorded
on change, with the value holding until the next record.  These helpers
resample such series onto uniform grids (how Figures 5-12 are drawn)
and compute time-weighted means, and read the congestion-control
activity off a window trace: when it shrank, and how often another
flow's window shrank at about the same time.
"""

from __future__ import annotations

import bisect
from typing import List, Mapping, Sequence, Tuple

import numpy as np


def sample_step_series(
    log: Sequence[Tuple[float, float]],
    times: Sequence[float],
    initial: float = 0.0,
) -> np.ndarray:
    """Value of a step series at each query time.

    Args:
        log: (time, value) change points, sorted by time.
        times: query instants.
        initial: value before the first change point.
    """
    if not log:
        return np.full(len(times), initial, dtype=float)
    change_times = [t for t, _ in log]
    values = [v for _, v in log]
    out = np.empty(len(times), dtype=float)
    for i, t in enumerate(times):
        idx = bisect.bisect_right(change_times, t) - 1
        out[i] = values[idx] if idx >= 0 else initial
    return out


def uniform_grid(t_start: float, t_end: float, step: float) -> np.ndarray:
    """Uniform sample instants in [t_start, t_end) with spacing ``step``."""
    if step <= 0:
        raise ValueError("step must be positive")
    if t_end <= t_start:
        return np.zeros(0)
    n = int((t_end - t_start) / step)
    return t_start + step * np.arange(n)


def step_mean(
    log: Sequence[Tuple[float, float]],
    t_start: float,
    t_end: float,
    initial: float = 0.0,
) -> float:
    """Time-weighted mean of a step series over [t_start, t_end]."""
    if t_end <= t_start:
        raise ValueError("t_end must exceed t_start")
    points: List[Tuple[float, float]] = [(t, v) for t, v in log if t <= t_end]
    value = initial
    last_time = t_start
    integral = 0.0
    for time, new_value in points:
        if time <= t_start:
            value = new_value
            continue
        integral += value * (time - last_time)
        value = new_value
        last_time = time
    integral += value * (t_end - last_time)
    return integral / (t_end - t_start)


def decrease_events(log: Sequence[Tuple[float, float]]) -> List[float]:
    """Times at which a step series (a congestion window) shrank."""
    times: List[float] = []
    previous = None
    for t, value in log:
        if previous is not None and value < previous:
            times.append(t)
        previous = value
    return times


def all_decrease_events(
    logs: Mapping[int, Sequence[Tuple[float, float]]]
) -> List[Tuple[float, int]]:
    """(time, flow) of every decrease across the traced flows, sorted."""
    return sorted(
        (t, flow) for flow, log in logs.items() for t in decrease_events(log)
    )


def synchronization_fraction(
    logs: Mapping[int, Sequence[Tuple[float, float]]], window: float = 1.0
) -> float:
    """Fraction of decrease events with a decrease of *another* flow
    within ``window`` seconds -- loss synchronization, quantified
    (0 when nothing decreased)."""
    events = all_decrease_events(logs)
    if not events:
        return 0.0
    times = [t for t, _flow in events]
    shared = 0
    for t, flow in events:
        lo = bisect.bisect_left(times, t - window)
        hi = bisect.bisect_right(times, t + window)
        if any(other != flow for _t, other in events[lo:hi]):
            shared += 1
    return shared / len(events)
