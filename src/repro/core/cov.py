"""The coefficient of variation (c.o.v.) of binned packet counts.

The paper's burstiness measure (Section 2.2): the ratio of the standard
deviation to the mean of the number of packets arriving at the gateway
in each round-trip propagation delay.  A small c.o.v. means arrivals
concentrate around the mean and statistical multiplexing works well; a
large c.o.v. means bursts.
"""

from __future__ import annotations

from array import array
from struct import Struct
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[Sequence[float], np.ndarray, Iterable[float]]

#: How many recorded times a counter holds before folding.
FOLD_SIZE = 65536

#: One time as the bytes of one ``array("d")`` slot: ``n`` copies go in
#: with one ``frombytes``, where extending by a list converts each.
_pack_time = Struct("d").pack


def bin_counts(
    times: ArrayLike,
    bin_width: float,
    t_start: float = 0.0,
    t_end: Optional[float] = None,
) -> np.ndarray:
    """Count events per fixed-width bin over ``[t_start, t_end)``.

    Events outside the window are discarded.  Trailing empty bins up to
    ``t_end`` are included (an interval with no arrivals is still an
    observation of the arrival process).  The window holds whole bins
    only, and an event whose offset rounds up to the bin past the last
    one (the last ulp before the window's end) counts in none.
    """
    if bin_width <= 0:
        raise ValueError("bin width must be positive")
    times = np.asarray(list(times) if not isinstance(times, np.ndarray) else times)
    if t_end is None:
        t_end = float(times.max()) + bin_width if times.size else t_start
    if t_end < t_start:
        raise ValueError("t_end must not precede t_start")
    n_bins = int((t_end - t_start) / bin_width)
    if n_bins <= 0:
        return np.zeros(0)
    _, indices = window_bins(times, bin_width, t_start, n_bins)
    return np.bincount(indices, minlength=n_bins)[:n_bins].astype(float)


def window_bins(
    times: np.ndarray, bin_width: float, t_start: float, n_bins: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The window rule of every count: the mask of ``times`` inside
    ``n_bins`` whole bins from ``t_start``, and their bin indices
    (``n_bins`` for an offset that rounds up past the last bin)."""
    in_window = (times >= t_start) & (times < t_start + n_bins * bin_width)
    return in_window, ((times[in_window] - t_start) / bin_width).astype(int)


class BinCounter:
    """:func:`bin_counts` of every time recorded, in O(bins) memory.

    Times wait in ``pending``, a float64 ``array("d")``, and are folded
    into the counts through :func:`bin_counts` -- binned straight from
    the array's buffer, with no copy to a list -- whenever
    :data:`FOLD_SIZE` of them wait, and on :meth:`counts`.
    """

    def __init__(self, bin_width: float, t_start: float, t_end: float) -> None:
        self.bin_width = bin_width
        self.t_start = t_start
        self.t_end = t_end
        self.pending = array("d")
        self._counts = bin_counts((), bin_width, t_start, t_end)

    def add(self, time: float, n: int = 1) -> None:
        """Record ``n`` events at ``time`` (the ``TrafficSource.add_hook``
        signature)."""
        pending = self.pending
        if n == 1:  # nearly every call
            pending.append(time)
        else:
            pending.frombytes(_pack_time(time) * n)
        if len(pending) >= FOLD_SIZE:
            self.fold()

    def extend(self, times: Iterable[float]) -> None:
        """Record one event per time."""
        self.pending.extend(times)
        if len(self.pending) >= FOLD_SIZE:
            self.fold()

    def fold(self) -> None:
        """Bin the pending times into the counts and clear them."""
        pending = self.pending
        # The numpy view must be gone before the array shrinks (an
        # array with an exported buffer refuses to resize), so it is
        # only ever a temporary of this call.
        self._counts += bin_counts(
            np.frombuffer(pending), self.bin_width, self.t_start, self.t_end
        )
        del pending[:]

    def counts(self) -> np.ndarray:
        """Per-bin counts over ``[t_start, t_end)`` of every time so far."""
        self.fold()
        return self._counts.copy()


def coefficient_of_variation(counts: ArrayLike, ddof: int = 0) -> float:
    """std/mean of a sample of counts.

    Returns ``nan`` for empty input and ``inf`` when the mean is zero
    but the sample is not (which cannot happen for counts) -- for an
    all-zero sample the c.o.v. is defined as 0 (a perfectly smooth,
    perfectly idle link).
    """
    counts = np.asarray(
        list(counts) if not isinstance(counts, np.ndarray) else counts, dtype=float
    )
    if counts.size == 0:
        return float("nan")
    mean = counts.mean()
    if mean == 0:
        return 0.0
    return float(counts.std(ddof=ddof) / mean)
