"""Goldens for what the flight recorder exports.

``tests/goldens/obs/<cell>/`` holds, for three seeded cells traced in
all five categories, the ``registry.json`` that ``ObsBundle.export``
writes (verbatim) and, in ``sha256.json``, the SHA-256 of every other
file it writes, in both the jsonl and the csv format.  The cells cover
a droptail queue, a RED queue whose drops are ``red_early`` and
``buffer_overflow``, and the hybrid backend's gateway.  A diff here
means the probes recorded another series, or the scalar snapshot
derived from them says something else.

To regenerate after an *intentional* change::

    PYTHONPATH=src python -m pytest tests/test_obs_goldens.py --regen-goldens

then read the diff (``tests/goldens/README.md`` says when that is
legitimate).
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments.config import paper_config
from repro.experiments.scenario import run_scenario
from repro.obs.probes import TRACE_CATEGORIES

GOLDEN_DIR = Path(__file__).parent / "goldens" / "obs"

CELLS = {
    "droptail_n30": dict(queue="fifo", n_clients=30, duration=2.0),
    "red_n40": dict(queue="red", n_clients=40, duration=2.0),
    "hybrid_n200_k5": dict(
        backend="hybrid", n_clients=200, hybrid_foreground_flows=5, duration=2.0
    ),
}


def _export(cell, tmp_path):
    """``{fmt: {filename: bytes}}`` of one traced run's exports."""
    obs = run_scenario(
        paper_config(seed=1, obs_trace=TRACE_CATEGORIES, **CELLS[cell])
    ).obs
    exported = {}
    for fmt in ("jsonl", "csv"):
        paths = obs.export(str(tmp_path / fmt), fmt=fmt)
        exported[fmt] = {Path(path).name: Path(path).read_bytes() for path in paths}
    return exported


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_exports_are_unchanged(cell, tmp_path, request):
    exported = _export(cell, tmp_path)
    registry = exported["jsonl"]["registry.json"]
    digests = {
        fmt: {
            name: hashlib.sha256(data).hexdigest()
            for name, data in sorted(files.items())
            if name != "registry.json"
        }
        for fmt, files in exported.items()
    }
    golden = GOLDEN_DIR / cell
    if request.config.getoption("--update-goldens"):
        golden.mkdir(parents=True, exist_ok=True)
        (golden / "registry.json").write_bytes(registry)
        (golden / "sha256.json").write_text(
            json.dumps(digests, indent=1, sort_keys=True) + "\n"
        )
        return
    assert exported["csv"]["registry.json"] == registry
    assert registry.decode() == (golden / "registry.json").read_text()
    assert digests == json.loads((golden / "sha256.json").read_text())
