"""Host-speed sampling, so timings survive a noisy shared host.

The sandbox this ledger was built on runs each vCPU in one of two
states -- undisturbed, or about 40 % slower while a neighbour is busy --
and flips between them every few seconds, with phases of one state that
last minutes.  Identical runs of one commit, back to back, differed by
up to 1.9x in wall time; no bound below 25 % can hold over that.

So while a timed region runs, an interval timer interrupts the main
thread every 50 ms and times a fixed 1 ms pure-stdlib kernel there --
on the same vCPU, in the same state, as the code being measured.  The
mean of the sampled rates, over the rate of an undisturbed reference
host, is the host's speed during the region; wall seconds times that
speed are *reference-host seconds*: what the region would have taken
undisturbed.  On identical 4-second cells this brought the spread
(inter-quartile range over median) from 18 % to 4 %.

The kernel's own time (about 2 % of the region) is subtracted.  Nothing
in the program is touched: the handler runs between two bytecodes of
whatever the main thread is doing.  Interval timers are not inherited
across ``fork``, so pool workers are never interrupted; the parent's
samples then land on whichever vCPU it wakes on, which averages the
two.  Only stdlib imports here: a set-up probe starts sampling before it
imports anything else.
"""

from __future__ import annotations

import heapq
import signal
import time
from typing import Any, Callable, List, Optional, Tuple

#: Kernel runs per second on the reference host: the 2.1 GHz sandbox the
#: committed baseline was taken on, in its undisturbed state.  This only
#: fixes the unit; comparisons need it to stay what it is.
REFERENCE_RATE = 1100.0


def _kernel() -> float:
    """About a millisecond of the interpreter work a simulator does:
    heap pushes and pops, dict stores, float arithmetic."""
    heap: List[tuple] = []
    push, pop = heapq.heappush, heapq.heappop
    table = {}
    total = 0.0
    for i in range(1500):
        push(heap, (((i * 7919) % 10007) * 0.001, i))
        if i & 1:
            total += pop(heap)[0]
        table[i & 63] = total
    return total


class HostSpeed:
    """Context manager: sample the host's speed while the body runs."""

    def __init__(self, period_s: float = 0.05) -> None:
        self.period_s = period_s
        #: One (perf_counter time, kernel runs per second, seconds spent)
        #: per sample.
        self.samples: List[Tuple[float, float, float]] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _kernel()
        spent = time.perf_counter() - start
        self.samples.append((start, 1.0 / spent, spent))

    def __enter__(self) -> "HostSpeed":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def _window(self, start: Optional[float], end: Optional[float]):
        """The samples taken in [start, end]; all of them where the
        window is too short to hold one."""
        inside = [
            s for s in self.samples
            if (start is None or s[0] >= start) and (end is None or s[0] <= end)
        ]
        return inside or self.samples

    def speed(self, start: Optional[float] = None, end: Optional[float] = None) -> float:
        """Mean sampled speed over the reference host's (1 = undisturbed
        reference host; 0.7 = this host ran 30 % slower)."""
        window = self._window(start, end)
        return sum(rate for _, rate, _ in window) / len(window) / REFERENCE_RATE

    def reference_seconds(self, start: float, end: float) -> float:
        """The stretch of the body from ``start`` to ``end`` (perf_counter
        times), less the sampler's share of it, in reference-host
        seconds, by the speed sampled during that stretch."""
        busy = sum(spent for at, _, spent in self.samples if start <= at <= end)
        return max(end - start - busy, 0.0) * self.speed(start, end)


def reference_timed(call: Callable[[], Any]) -> Tuple[float, Any]:
    """Run ``call()`` under a sampler: (reference-host seconds, result)."""
    with HostSpeed() as host:
        start = time.perf_counter()
        result = call()
        end = time.perf_counter()
    return host.reference_seconds(start, end), result
