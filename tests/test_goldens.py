"""Golden ScenarioMetrics fixtures for core Figure 2/3 points.

Each golden file in tests/goldens/ pins the full (wall-clock-free)
:class:`ScenarioMetrics` record of one seeded sweep point near the
paper's congestion knee -- the three Figure 2 curves (UDP, Reno,
Reno/RED) plus Vegas/RED.  Any change to simulation physics, metric
derivation, RNG consumption order, or scheduler behavior shows up as a
field-level diff against the stored record.  The stored records were
produced on an earlier binary-heap scheduler and held through the timer
wheel that replaced it and the tuple heap that replaced the wheel, so
the fixtures double as end-to-end evidence, at paper-realistic load,
that neither replacement changed anything.

To regenerate after an *intentional* behavior change::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens

then review the JSON diff before committing.
"""

import json
import math
from pathlib import Path

import pytest

from repro.experiments.config import paper_config
from repro.experiments.results import ScenarioMetrics
from repro.experiments.scenario import Scenario
from tests.helpers import physics_payload

GOLDEN_DIR = Path(__file__).parent / "goldens"

# Just above the knee (37.5 clients at Table 1 rates): every protocol
# is in sustained congestion, so losses, retransmissions, and queue
# dynamics are all exercised.
BASE = dict(n_clients=40, duration=16.0, seed=7)

GOLDEN_POINTS = {
    "fig2_udp_fifo_n40": dict(protocol="udp", queue="fifo"),
    "fig2_reno_fifo_n40": dict(protocol="reno", queue="fifo"),
    "fig2_reno_red_n40": dict(protocol="reno", queue="red"),
    "fig3_vegas_red_n40": dict(protocol="vegas", queue="red"),
}


def _values_equal(expected, actual):
    if (
        isinstance(expected, float)
        and isinstance(actual, float)
        and math.isnan(expected)
        and math.isnan(actual)
    ):
        return True
    return expected == actual


def diff_payloads(expected, actual):
    """Field-level differences, as readable one-line strings."""
    diffs = []
    for key in sorted(set(expected) | set(actual)):
        if key not in expected:
            diffs.append(f"  {key}: unexpected new field (value {actual[key]!r})")
        elif key not in actual:
            diffs.append(f"  {key}: missing (golden has {expected[key]!r})")
        elif not _values_equal(expected[key], actual[key]):
            diffs.append(f"  {key}: golden {expected[key]!r} != run {actual[key]!r}")
    return diffs


@pytest.mark.parametrize("name", sorted(GOLDEN_POINTS))
def test_metrics_match_golden(name, request):
    config = paper_config(**BASE, **GOLDEN_POINTS[name])
    payload = physics_payload(ScenarioMetrics.from_result(Scenario(config).run()))

    path = GOLDEN_DIR / f"{name}.json"
    if request.config.getoption("--update-goldens"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    assert path.exists(), (
        f"golden {path.name} missing; generate it with "
        "pytest tests/test_goldens.py --update-goldens"
    )
    golden = json.loads(path.read_text())
    diffs = diff_payloads(golden, payload)
    assert not diffs, (
        f"{name} diverged from the golden "
        f"(if intentional, rerun with --update-goldens):\n" + "\n".join(diffs)
    )


def test_goldens_have_no_orphan_files():
    """Every stored golden corresponds to a declared point."""
    expected = {f"{name}.json" for name in GOLDEN_POINTS}
    actual = {path.name for path in GOLDEN_DIR.glob("*.json")}
    assert actual == expected
