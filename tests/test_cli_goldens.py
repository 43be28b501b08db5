"""Characterization goldens for the ``repro-tcp`` sweep commands.

``tests/goldens/cli/`` holds, for each of the nine sweep commands on a
tiny grid, the exact stdout and every file the command wrote, plus a
``{subcommand: sorted(option strings)}`` snapshot of the parser.  The
files were captured at the commit *before* the sweep/figure spec table
replaced the per-figure functions and per-sweep handlers, so a diff here
means the table does not say what the functions said.

Two single-cell commands sit beside them: ``forensics`` on the seeded
40-client dumbbell, and ``run`` on the same cell streaming its
forensics records to a file.  Their files were captured while a run
with no stream file still built its report by a separate offline
pipeline, so a diff here means the one streamed pipeline does not say
what that one said.

Each command runs in a scratch working directory with relative output
paths, so the ``wrote PATH`` lines are stable.  Wall-clock telemetry is
blanked before comparing: the columns and keys named in
``ScenarioMetrics._WALL_CLOCK_FIELDS``, the timings of an engine
profile (whose categories are then sorted by name, not wall time), and
the engine-profile table on stdout; everything else is compared byte
for byte.

To regenerate after an *intentional* output change::

    PYTHONPATH=src python -m pytest tests/test_cli_goldens.py --regen-goldens

then read the diff (``tests/goldens/README.md`` says when that is
legitimate).
"""

import csv
import io
import json
from pathlib import Path

import pytest

from repro.experiments.cli import main
from repro.experiments.results import ScenarioMetrics
from tests.helpers import subcommand_parsers

GOLDEN_DIR = Path(__file__).parent / "goldens" / "cli"

TINY = ["--duration", "3", "--seed", "3", "--processes", "1"]

# Figures 3/4/13 drop client counts below 30, so their grids straddle
# that cut; the fluid ladder needs counts the packet engine never sees.
COMMANDS = {
    "fig2": ["fig2", "--clients", "2,3", "--csv", "fig2.csv", "--json", "fig2.json"],
    "fig3": ["fig3", "--clients", "20,40"],
    "fig4": ["fig4", "--clients", "20,40"],
    "fig13": ["fig13", "--clients", "40,60"],
    "largen": ["largen", "--clients", "20,50"],
    "fluid": ["fluid", "--clients", "50,1000"],
    "hybrid": [
        "hybrid", "--clients", "50,1000", "--hybrid-foreground", "4",
        "--csv", "hybrid.csv", "--json", "hybrid.json",
    ],
    "forensics_sweep": [
        "forensics", "--sweep", "20,40",
        "--csv", "forensics.csv", "--json", "forensics.json",
    ],
    "all": ["all", "--outdir", "results", "--clients", "20,40"],
}

# The seeded forensics cell, once unstreamed and once streamed to a
# file: each keeps its own arguments (TINY would replace the cell).
CELL = ["--clients", "40", "--duration", "16", "--seed", "7"]
CELL_COMMANDS = {
    "forensics": [
        "forensics", *CELL, "--json", "report.json", "--csv", "attribution.csv",
        "--obs-dir", "obs",
    ],
    "run_forensics_stream": [
        "run", *CELL, "--forensics-stream", "stream.jsonl", "--obs-dir", "obs",
        "--json", "metrics.json",
    ],
}

#: Engine-profile keys that time the run rather than count it.
_PROFILE_TIMINGS = frozenset({
    "events_per_sec", "loop_events_per_sec", "mean_us", "overhead_events_per_sec",
    "overhead_time", "run_wall_time", "sim_wall_ratio", "wall_time",
})


def _scrub_json(text: str) -> str:
    """A JSON object with its wall-clock values nulled; an engine
    profile's categories (ranked by wall time) sorted by name."""
    payload = json.loads(text)
    volatile = ScenarioMetrics._WALL_CLOCK_FIELDS | _PROFILE_TIMINGS
    if not isinstance(payload, dict) or not volatile & payload.keys():
        return text
    for entry in [payload, *payload.get("categories", [])]:
        for key in volatile & entry.keys():
            entry[key] = None
    if "categories" in payload:
        payload["categories"].sort(key=lambda entry: entry["category"])
    return json.dumps(payload, indent=2) + "\n"


def _scrub_stdout(text: str) -> str:
    """Stdout with the engine-profile block (timings, ranked by wall
    time) reduced to its first word."""
    lines = text.split("\n")
    for start, line in enumerate(lines):
        if line.startswith("Engine profile:"):
            end = lines.index("", start)
            lines[start:end] = ["Engine profile: (wall-clock, blanked)"]
            break
    return "\n".join(lines)


def _scrub(path: Path) -> str:
    """File text with the wall-clock columns of a metrics CSV blanked."""
    text = path.read_text()
    if path.suffix == ".json":
        return _scrub_json(text)
    if path.suffix != ".csv":
        return text
    rows = list(csv.reader(io.StringIO(text)))
    volatile = [
        i for i, name in enumerate(rows[0])
        if name in ScenarioMetrics._WALL_CLOCK_FIELDS
    ]
    if not volatile:
        return text
    for row in rows[1:]:
        for i in volatile:
            row[i] = ""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_sweep_command_matches_golden(name, request, tmp_path, monkeypatch, capsys):
    argv = COMMANDS[name] + TINY
    _assert_matches_golden(name, argv, request, tmp_path, monkeypatch, capsys)


@pytest.mark.parametrize("name", sorted(CELL_COMMANDS))
def test_forensics_command_matches_golden(
    name, request, tmp_path, monkeypatch, capsys
):
    argv = CELL_COMMANDS[name]
    _assert_matches_golden(name, argv, request, tmp_path, monkeypatch, capsys)


def _assert_matches_golden(name, argv, request, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    produced = {"stdout.txt": _scrub_stdout(capsys.readouterr().out)}
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file():
            produced[path.relative_to(tmp_path).as_posix()] = _scrub(path)

    golden = GOLDEN_DIR / name
    if request.config.getoption("--update-goldens"):
        for relative, text in produced.items():
            target = golden / relative
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)
        return
    expected = {
        path.relative_to(golden).as_posix(): path.read_text()
        for path in sorted(golden.rglob("*"))
        if path.is_file()
    }
    assert sorted(produced) == sorted(expected), "the set of written files changed"
    for relative, text in produced.items():
        assert text == expected[relative], (
            f"`repro-tcp {' '.join(argv)}`: {relative} differs "
            f"from tests/goldens/cli/{name}/{relative}"
        )


def test_option_strings_match_golden(request):
    """Every subcommand keeps exactly its flags: none added, none lost."""
    snapshot = {
        name: sorted(
            option for action in sub._actions for option in action.option_strings
        )
        for name, sub in subcommand_parsers().items()
    }
    path = GOLDEN_DIR / "options.json"
    if request.config.getoption("--update-goldens"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
        return
    assert snapshot == json.loads(path.read_text())
