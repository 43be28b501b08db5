#!/usr/bin/env python3
"""Set up as a run does, in a fresh interpreter, and say how long it took.

``setup_probe.py WORKLOAD SEED`` is what ``run.py`` spawns to measure
``setup_s``: interpreter start, every import a run makes, input
generation from the seed and the untimed warm-up cell.  The host's
speed is sampled from before the imports -- they are most of the set-up
-- so only the stdlib and ``hostspeed`` are imported at the top.

Prints one JSON object: ``ready`` (``time.time()`` when set-up was
done; the parent knows when it started the process) and
``reference_share`` (reference-host seconds per wall second while
setting up).
"""

from __future__ import annotations

import json
import sys
import time

from hostspeed import HostSpeed


def main(workload_name: str, seed: int) -> int:
    with HostSpeed(period_s=0.01) as host:
        import run  # everything a run imports

        workload = run.WORKLOADS[workload_name]
        workload.warmup(workload.inputs(seed))
        ready = time.time()
    began, ended = host.samples[0][0], host.samples[-1][0]
    print(json.dumps({
        "ready": ready,
        "reference_share": host.reference_seconds(began, ended) / (ended - began),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
