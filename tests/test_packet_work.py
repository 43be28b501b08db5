"""What one packet costs in Python frames: a work gate, not a time gate.

Every packet workload is bound by the Python work done per packet, so
the gate counts the frames entered under ``src/repro`` (``sys.setprofile``
``call`` events) over one ``Scenario.run()``, per DATA packet offered
at the gateway (the bottleneck queue's ``stats.arrivals``).  A no-op
hook, a property or a wrapper slipped back into the per-packet path
changes these counts on any host.

List, dict and set comprehensions are left out: Python 3.12 inlines
them into the enclosing frame (PEP 709), earlier versions give each its
own, so one set of pins holds on 3.9-3.12.  Generator expressions and
lambdas are frames on every version and count.
"""

from __future__ import annotations

import io
import os
import sys
from collections import Counter

import pytest

import repro
from repro.engine.batch import BatchScenario
from repro.experiments.config import paper_config
from repro.experiments.scenario import Scenario
from repro.obs.probes import TRACE_CATEGORIES

#: Each cell runs N = 40 clients for 10 s at seed 1.
CELLS = {
    "batch-reno-fifo": (BatchScenario, dict(protocol="reno", queue="fifo")),
    "batch-vegas-red": (BatchScenario, dict(protocol="vegas", queue="red")),
    "object-reno-fifo": (Scenario, dict(protocol="reno", queue="fifo", engine="object")),
    "object-udp-fifo": (Scenario, dict(protocol="udp", queue="fifo", engine="object")),
    # Every observer on: all five trace categories, forensics, and a
    # forensics stream checkpointing every 5 s.
    "object-reno-fifo-observed": (
        Scenario,
        dict(
            protocol="reno",
            queue="fifo",
            engine="object",
            obs_trace=TRACE_CATEGORIES,
            forensics=True,
        ),
    ),
}

#: ``(packets offered at the gateway, frames under src/repro)`` per cell.
FRAMES = {
    "batch-reno-fifo": (3603, 110468),
    "batch-vegas-red": (3432, 110617),
    "object-reno-fifo": (3603, 217082),
    "object-udp-fifo": (3984, 106281),
    "object-reno-fifo-observed": (3603, 261305),
}

#: Comprehension frames, which Python 3.12 no longer creates.
_INLINED = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})

#: Functions the failure message names, most frames per packet first.
_NAMED = 15


def _frames_of_one_run(cell):
    """``(offered, {(file, line, function): frames})`` of one run."""
    scenario_class, overrides = CELLS[cell]
    config = paper_config(n_clients=40, duration=10.0, seed=1, **overrides)
    scenario = scenario_class(config)
    queue = scenario.network.bottleneck_queue
    if config.forensics:
        scenario.attach_forensics_stream(io.StringIO(), 5.0)
    repro_dir = os.path.dirname(repro.__file__) + os.sep
    frames = Counter()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(repro_dir) and code.co_name not in _INLINED:
                frames[
                    code.co_filename[len(repro_dir):], code.co_firstlineno, code.co_name
                ] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        scenario.run()
    finally:
        sys.setprofile(previous)
        scenario.release()
    return queue.stats.arrivals, frames


class TestPacketWork:
    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_frames_per_packet_offered(self, cell):
        offered, frames = _frames_of_one_run(cell)
        total = sum(frames.values())
        heaviest = "\n".join(
            f"  {count / offered:6.2f}  {path}:{line} {name}"
            for (path, line, name), count in frames.most_common(_NAMED)
        )
        assert (offered, total) == FRAMES[cell], (
            f"{cell}: {total} frames for {offered} packets offered "
            f"({total / offered:.2f} a packet; pinned "
            f"{FRAMES[cell][1] / FRAMES[cell][0]:.2f}).  Frames per packet "
            f"of the {_NAMED} heaviest functions:\n{heaviest}"
        )
