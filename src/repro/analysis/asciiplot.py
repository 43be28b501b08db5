"""Terminal rendering of figures.

The benchmark harness regenerates each of the paper's figures as data
series; these helpers draw them as ASCII charts so the *shape* of each
result (who wins, where the knee is) is visible straight from the
terminal, with the exact numbers alongside.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.timeseries import sample_step_series, uniform_grid

_MARKERS = "o*x+#@%&"


def ascii_series_plot(
    series: Dict[str, Tuple[Sequence[float], Sequence[float]]],
    width: int = 72,
    height: int = 20,
    title: str = "",
    xlabel: str = "",
    ylabel: str = "",
    y_min: Optional[float] = None,
    y_max: Optional[float] = None,
) -> str:
    """Scatter/line plot of named (x, y) series on a character canvas.

    Each series gets its own marker; a legend maps markers to names.
    """
    if not series:
        return "(no data)"
    all_x = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values()])
    all_y = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values()])
    finite = np.isfinite(all_y)
    if not finite.any():
        return "(no finite data)"
    x_lo, x_hi = float(all_x.min()), float(all_x.max())
    y_lo = float(all_y[finite].min()) if y_min is None else y_min
    y_hi = float(all_y[finite].max()) if y_max is None else y_max
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    canvas = [[" "] * width for _ in range(height)]
    legend: List[str] = []
    for index, (name, (xs, ys)) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        legend.append(f"{marker} {name}")
        for x, y in zip(xs, ys):
            if not (np.isfinite(x) and np.isfinite(y)):
                continue
            col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int((y - y_lo) / (y_hi - y_lo) * (height - 1))
            row = height - 1 - min(max(row, 0), height - 1)
            col = min(max(col, 0), width - 1)
            canvas[row][col] = marker

    lines: List[str] = []
    if title:
        lines.append(title.center(width + 10))
    top_label = f"{y_hi:.4g}"
    bottom_label = f"{y_lo:.4g}"
    label_width = max(len(top_label), len(bottom_label), len(ylabel)) + 1
    for row_index, row in enumerate(canvas):
        if row_index == 0:
            prefix = top_label.rjust(label_width)
        elif row_index == height - 1:
            prefix = bottom_label.rjust(label_width)
        elif row_index == height // 2 and ylabel:
            prefix = ylabel[: label_width - 1].rjust(label_width)
        else:
            prefix = " " * label_width
        lines.append(f"{prefix}|{''.join(row)}")
    lines.append(" " * label_width + "+" + "-" * width)
    x_axis = f"{x_lo:.4g}".ljust(width // 2) + f"{x_hi:.4g}".rjust(width - width // 2)
    lines.append(" " * (label_width + 1) + x_axis)
    if xlabel:
        lines.append(" " * (label_width + 1) + xlabel.center(width))
    lines.append("legend: " + "   ".join(legend))
    return "\n".join(lines)


def ascii_step_plot(
    log: Sequence[Tuple[float, float]],
    t_start: float,
    t_end: float,
    width: int = 72,
    height: int = 16,
    title: str = "",
) -> str:
    """Render a step series (e.g. a cwnd trace) over a time window."""
    times = uniform_grid(t_start, t_end, (t_end - t_start) / max(width, 1))
    values = sample_step_series(log, times)
    return ascii_series_plot(
        {"": (times, values)},
        width=width,
        height=height,
        title=title,
        xlabel="time (s)",
    )
