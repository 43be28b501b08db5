"""Exported bytes: the production writers against the per-row reference.

``tests/export_reference.py`` holds ``_write_jsonl`` / ``_write_csv``
as they were while each JSONL row went through
``json.dumps(record, sort_keys=True)``.  Every case here writes the
same series with both and requires the same file, byte for byte, and
the same return value:

* the whole ``ObsBundle.export`` of one seeded observed cell (all five
  trace categories + forensics), in both formats, on both engines;
* generated series sitting on the encoder's edges -- single-type and
  mixed columns, ``bool`` / ``None`` / NaN / +-inf / ``-0.0``, ints
  past 2**63, strings with quotes, backslashes, non-ASCII and ``%``,
  nested lists and dicts, names that collide (an ``extra`` key shadowed
  by a column, a column called ``time``, two columns with one name),
  one-row series, row counts around the writer's chunk size, and two
  series appended to one file.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import paper_config
from repro.experiments.scenario import run_scenario
from repro.obs import bundle
from repro.obs.series import TimeSeries
from tests import export_reference as reference

#: Rows the production writer encodes at a time (the per-row reference
#: has no chunks; the sizes below straddle this either way).
CHUNK = bundle._CHUNK_ROWS


def both(series_and_extras, writer="_write_jsonl"):
    """The file each writer leaves after the same sequence of calls,
    and what the calls returned."""
    outcomes = []
    with tempfile.TemporaryDirectory() as directory:
        for tag, module in (("production", bundle), ("reference", reference)):
            path = os.path.join(directory, tag)
            write = getattr(module, writer)
            returned = [write(path, s, extra) for s, extra in series_and_extras]
            with open(path, "rb") as handle:
                outcomes.append((handle.read(), returned))
    return outcomes


def series_of(columns, rows):
    series = TimeSeries("s", columns=columns)
    for row in rows:
        series.append(*row)  # all-"O" columns: types untouched
    return series


# ----------------------------------------------------------------------
# (i) A whole export
# ----------------------------------------------------------------------
def export_files(obs, directory, fmt):
    obs.export(directory, fmt)
    files = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            files[name] = handle.read()
    return files


@pytest.fixture(scope="module", params=["object", "batch"])
def observed(request):
    config = paper_config(
        n_clients=40,
        duration=8.0,
        seed=5,
        buffer_capacity=15,  # drops, cuts and sync events inside 8 s
        obs_trace=("cwnd", "rtt", "state", "queue", "drops"),
        forensics=True,
        engine=request.param,
    )
    result = run_scenario(config)
    assert result.engine == request.param
    return result.obs


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_whole_export_matches_the_reference(observed, fmt, tmp_path, monkeypatch):
    production = export_files(observed, str(tmp_path / "production"), fmt)
    monkeypatch.setattr(bundle, "_write_jsonl", reference._write_jsonl)
    monkeypatch.setattr(bundle, "_write_csv", reference._write_csv)
    expected = export_files(observed, str(tmp_path / "reference"), fmt)
    assert production.keys() == expected.keys()
    assert {
        f"{stem}.{fmt}"
        for stem in (
            "flow_cwnd", "flow_rtt", "flow_state", "queue_occupancy",
            "queue_drops", "forensic_bursts", "forensic_attribution",
            "forensic_sync",
        )
    } <= production.keys()
    for name in expected:
        assert production[name] == expected[name], name


def test_re_export_replaces(observed, tmp_path):
    first = export_files(observed, str(tmp_path), "jsonl")
    assert export_files(observed, str(tmp_path), "jsonl") == first


# ----------------------------------------------------------------------
# (ii) Generated series
# ----------------------------------------------------------------------
AWKWARD_TEXT = st.text(
    alphabet=st.sampled_from('ab%"\\/\n\t\x00\x7f é \U0001f600{}s'), max_size=6
)
TEXT = st.one_of(AWKWARD_TEXT, st.text(max_size=8))
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e22, 1e-7, 5e-324, 1.7976931348623157e308]),
)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
INTS = st.one_of(
    st.integers(),
    st.sampled_from([0, -1, 2**63 - 1, 2**63, -(2**63) - 1, 10**40]),
)
SCALARS = st.one_of(FLOATS, NON_FINITE, INTS, TEXT, st.booleans(), st.none())
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(TEXT, inner, max_size=3),  # unsorted keys, nested
    ),
    max_leaves=6,
)
#: What one column may hold: one type throughout, or anything per row.
COLUMN_KINDS = st.sampled_from([FLOATS, INTS, TEXT, st.booleans(), VALUES, VALUES])
NAMES = st.one_of(
    st.sampled_from(["time", "flow_id", "queue", "a", "b", "%s", "100%", '"']), TEXT
)


@st.composite
def series_and_extra(draw, min_rows=1, max_rows=12):
    names = draw(st.lists(NAMES, max_size=5))
    kinds = [draw(COLUMN_KINDS) for _ in names]
    time_kind = draw(st.sampled_from([FLOATS, FLOATS, INTS, VALUES]))
    n_rows = draw(st.integers(min_rows, max_rows))
    rows = [
        (draw(time_kind), *(draw(kind) for kind in kinds)) for _ in range(n_rows)
    ]
    extra = draw(st.dictionaries(NAMES, VALUES, max_size=3))
    return series_of(names, rows), extra


@settings(max_examples=300, deadline=None)
@given(series_and_extra())
def test_generated_series_match(case):
    production, expected = both([case])
    assert production == expected


@settings(max_examples=60, deadline=None)
@given(series_and_extra(), series_and_extra())
def test_two_series_appended_to_one_file_match(first, second):
    production, expected = both([first, second])
    assert production == expected
    assert production[0].count(b"\n") == len(first[0]) + len(second[0])


@settings(max_examples=40, deadline=None)
@given(series_and_extra(max_rows=4))
def test_generated_series_match_as_csv(case):
    production, expected = both([case], writer="_write_csv")
    assert production == expected


def test_named_edge_cases_match():
    nan, inf = float("nan"), float("inf")
    cases = [
        # one row; a column shadows an extra key; "time" shadowed by a column
        (series_of(("flow_id", "time"), [(0.5, 7, "late")]), {"flow_id": 3, "z": None}),
        # two columns with one name: the later one wins
        (series_of(("v", "v"), [(0.0, 1, 2.5), (1.0, 3, 4.5)]), {}),
        # every float the fast path must hand back to json.dumps
        (series_of(("v",), [(0.0, nan), (1.0, inf), (2.0, -inf), (3.0, -0.0)]), {"q": "gw"}),
        # bools are ints to isinstance, not to the encoder
        (series_of(("v",), [(0.0, True), (1.0, 1), (2.0, False)]), {}),
        (series_of(("v",), [(0.0, 2**63), (1.0, -(2**64)), (2.0, 10**30)]), {}),
        (series_of(("v",), [(0.0, 'q"\\%s'), (1.0, "é "), (2.0, "")]), {"%d": "%s %%"}),
        (series_of(("v",), [(0.0, {"b": 1, "a": [nan, {"d": 2, "c": None}]})]), {"x": {"z": 1, "y": 2}}),
        # the forensic_bursts shape: None-able columns beside plain ones
        (series_of(("top", "rel", "t"), [(0.0, 3, "preceded", 0.25), (1.0, None, None, None)]), {}),
        # no columns at all; ints as times
        (series_of((), [(0,), (1,), (2,)]), {"queue": "gw"}),
    ]
    for case in cases:
        production, expected = both([case])
        assert production == expected, case[0].rows
    production, expected = both(cases)  # and all of them down one file
    assert production == expected


@pytest.mark.parametrize("n_rows", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_row_counts_around_the_chunk_size_match(n_rows):
    # The last row of each chunk-sized stretch changes type, so a
    # column that is all-float in one chunk is mixed in the next.
    rows = [
        (
            i * 0.125,
            i,
            i / 7.0 if (i + 1) % CHUNK else None,
            f"s{i}%",
            float("nan") if i == n_rows - 1 else -0.0,
        )
        for i in range(n_rows)
    ]
    case = (series_of(("n", "x", "label", "tail"), rows), {"queue": "gw%"})
    production, expected = both([case])
    assert production == expected
    assert production[1] == [n_rows]


def test_empty_series_touches_the_file_and_writes_nothing():
    production, expected = both([(series_of(("v",), []), {"a": 1})])
    assert production == expected == (b"", [0])


@pytest.mark.parametrize("row", [(1.0,), (1.0, 2, 3, 4)], ids=["short", "long"])
def test_a_row_that_does_not_fit_its_columns_is_refused(row):
    """Where the two part on purpose: the per-row writer left a short
    row's columns out and cut a long one, silently; stored a column at
    a time, such a row would shift every later row, so the series
    refuses it when it is appended and keeps what it had."""
    series = series_of(("a", "b"), [(0.0, 1, 2)])
    with pytest.raises(ValueError, match="does not fit its columns"):
        series_of(("a", "b"), [(0.0, 1, 2), row])
    with pytest.raises(ValueError, match="does not fit its columns"):
        series.append(*row)
    assert len(series) == 1
    assert series.rows == [(0.0, 1, 2)]
