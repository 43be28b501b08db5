"""What the engine profiler costs when you ask for it.

Profiling is opt-in: with no profiler attached the run loop carries no
timing code at all, and with one attached every event pays two
``perf_counter`` calls.  This bench times the same event chain both
ways, interleaved with min-of-N repeats (the minimum is robust to
machine noise), and reports the relative cost as information rather
than a gate.  (The disabled path's cost is no longer measured against
a resurrected pre-observability engine here; the performance ledger's
``wall_s`` on the workloads that observe nothing, diffed against the
committed baseline, covers it -- see benchmarks/ledger/README.md.)

Set ``REPRO_BENCH_OBS_JSON`` to a path to dump the measurements as JSON.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable

from repro.obs.engineprof import EngineProfiler
from repro.sim.engine import Simulator


def chain_workload(profiler: Any = None, chains: int = 20, length: int = 2000) -> int:
    """The bench_engine_micro event-loop chain: pure schedule/execute."""
    sim = Simulator()
    if profiler is not None:
        sim.attach_profiler(profiler)

    def chain(remaining: int) -> None:
        if remaining:
            sim.schedule(0.001, chain, remaining - 1)

    for _ in range(chains):
        sim.schedule(0.0, chain, length)
    sim.run()
    return sim.events_executed


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _interleaved_min(
    first: Callable[[], Any], second: Callable[[], Any], repeats: int = 9
) -> tuple:
    """Min-of-N wall times of two thunks, interleaved A/B/A/B.

    Interleaving exposes both thunks to the same drift (thermal, other
    processes); the minimum discards the noisy repeats.
    """
    clock = time.perf_counter
    best_first = best_second = float("inf")
    for _ in range(repeats):
        start = clock()
        first()
        best_first = min(best_first, clock() - start)
        start = clock()
        second()
        best_second = min(best_second, clock() - start)
    return best_first, best_second


# ----------------------------------------------------------------------
# Information: what profiling costs when you ask for it
# ----------------------------------------------------------------------
def test_profiled_overhead_event_chain():
    def profiled() -> int:
        return chain_workload(EngineProfiler())

    profiled()  # warm
    chain_workload()
    disabled_s, profiled_s = _interleaved_min(chain_workload, profiled, repeats=5)
    overhead = 100.0 * (profiled_s - disabled_s) / disabled_s
    path = os.environ.get("REPRO_BENCH_OBS_JSON")
    if path:
        stats = {
            "disabled_s": disabled_s,
            "profiled_s": profiled_s,
            "overhead_percent": overhead,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"profiled/event_chain": stats}, handle, indent=2)
            handle.write("\n")
    print(
        f"\nprofiled event_chain: disabled {disabled_s * 1e3:.2f} ms, "
        f"profiled {profiled_s * 1e3:.2f} ms, overhead {overhead:+.1f}%"
    )
    # Profiling is opt-in; this documents the cost rather than gating it,
    # but it should stay well under one order of magnitude.
    assert overhead < 400.0
