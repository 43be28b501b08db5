"""The claims table as a test, not a restatement.

Three layers:

* the table's shape, checked at import: every row's cells
  ``validate()``, every statistic exists, the predicates are of the
  three declared kinds, every id is filed under a known artefact;
* the **tier-1 slice** (the ``claims_slice`` fixture): the rows not
  marked ``not_in_slice``, evaluated in-process at a short duration
  under three seeds -- none may *fail*;
* the **mutation check**: each entry of :data:`MUTATIONS` breaks one
  rule of the physics for the length of one evaluation, and every row
  naming it in ``falsified_by`` must then read worse than it did --
  a row that held no longer holds, a row the slice could not resolve
  now fails.  Both engines run the same senders, queues and RNG
  streams, so a patch on the class or the module reaches the batch
  cells the rows run on.  A row that names no mutation renders as
  *vacuous*: nothing here would notice if the physics under it went.
"""

from dataclasses import fields, replace

import pytest

from repro.experiments import claims as claims_module
from repro.experiments.claims import (
    ARTEFACTS,
    CELLS,
    CLAIMS,
    MARGIN,
    RESULT_STATISTICS,
    Claim,
    Term,
    _observed,
    claim_cells,
    evaluate_claims,
    judge,
    render_claims,
)
from repro.experiments.cli import main
from repro.experiments.config import paper_config
from repro.experiments.results import ScenarioMetrics
from repro.experiments.scenario import run_scenario
from repro.net.red import REDQueue
from repro.sim import rng
from repro.transport import transitions
from tests.helpers import SLICE_BASE, SLICE_SEEDS

#: One-line physics mutations: name -> (object, attribute, replacement).
MUTATIONS = {
    # Every client draws the same arrival times: the independence the
    # 1/sqrt(N) smoothing rests on is gone.
    "clients_share_one_stream": (
        rng,
        "derive_seed",
        lambda root, name, _derive=rng.derive_seed: _derive(
            root, name.partition("/")[2] or name
        ),
    ),
    # No multiplicative decrease: a loss no longer halves ssthresh.
    "ssthresh_not_halved": (transitions, "halved_ssthresh", lambda window: window),
    # Congestion avoidance never starts: +1 per ACK for ever.
    "never_leaves_slow_start": (
        transitions,
        "slowstart_or_linear_next",
        lambda cwnd, ssthresh: cwnd + 1.0,
    ),
    # Vegas believes the bottleneck queue is empty whatever the RTT says.
    "vegas_sees_no_queue": (
        transitions,
        "vegas_queue_estimate",
        lambda window, base_rtt, rtt: 0.0,
    ),
    # RED's early-drop probability pinned to zero.
    "red_never_drops_early": (REDQueue, "_drop_probability", lambda self: 0.0),
}

#: PAPER.md section 1, one row per headline clause: UDP preserves the
#: smoothing; Reno and Reno/RED get burstier as congestion sets in;
#: Vegas stays much smoother; RED hurts c.o.v. and throughput for both.
HEADLINE = (
    "F2.udp-tracks-poisson",
    "F2.reno-above-poisson",
    "F2.red-worst",
    "F2.vegas-below-reno",
    "F3.red-costs-reno",
    "F3.red-costs-vegas",
)

_RANK = {"fails": 0, "unresolved": 1, "holds": 2}


class TestTable:
    def test_ids_are_unique_and_filed_under_a_known_artefact(self):
        assert len(CLAIMS) == len(claims_module._ROWS)
        assert {claim.artefact for claim in CLAIMS.values()} <= set(ARTEFACTS)

    def test_every_cell_validates(self):
        for config in claim_cells(CLAIMS.values(), paper_config(), (1,)).values():
            config.validate()
            _observed(config).validate()

    def test_every_statistic_exists(self):
        columns = {spec.name for spec in fields(ScenarioMetrics)}
        for claim in CLAIMS.values():
            for term in claim.terms:
                assert term.cell in CELLS, claim.id
                assert term.statistic in columns | set(RESULT_STATISTICS), claim.id

    def test_predicates_are_of_the_three_kinds(self):
        for claim in CLAIMS.values():
            assert claim.terms, f"{claim.id} compares two constants"
            assert "|" not in claim.claim and claim.section, claim.id
            if claim.kind == "ordering":
                assert claim.constant == 1.0, claim.id
            elif claim.kind == "ratio":
                assert claim.constant > 0 and claim.constant != 1.0, claim.id
            else:
                assert claim.kind == "tracks" and 0 < claim.constant < 1, claim.id

    def test_every_named_mutation_exists_and_guards_a_slice_row(self):
        for claim in CLAIMS.values():
            assert set(claim.falsified_by) <= set(MUTATIONS), claim.id
            assert not (claim.falsified_by and claim.not_in_slice), (
                f"{claim.id} names a mutation tier-1 never applies to it"
            )
        named = {name for claim in CLAIMS.values() for name in claim.falsified_by}
        assert named == set(MUTATIONS)

    def test_every_headline_row_names_a_mutation(self):
        for claim_id in HEADLINE:
            assert CLAIMS[claim_id].falsified_by, claim_id

    def test_a_known_deviation_is_out_of_the_slice(self):
        for claim in CLAIMS.values():
            assert not claim.deviation or claim.not_in_slice, claim.id


class TestJudge:
    ORDERING = Claim("x", "F2", "§0", "left above right", "ordering", 0.0, 0.0)

    def test_a_gap_must_clear_the_margin_either_way(self):
        # spread = hypot(0.1, 0.1) ~ 0.141, so two spreads ~ 0.283.
        left, right = (1.0, 1.1, 1.2), (0.5, 0.6, 0.7)
        assert judge(self.ORDERING, left, right).verdict == "holds"
        assert judge(self.ORDERING, right, left).verdict == "fails"
        close = judge(self.ORDERING, left, (0.9, 1.0, 1.1))
        assert close.verdict == "unresolved" and close.gap == pytest.approx(0.1)
        assert close.gap < MARGIN * close.spread

    def test_ratio_scales_the_right_side_and_its_spread(self):
        ratio = replace(self.ORDERING, kind="ratio", constant=2.0)
        verdict = judge(ratio, (3.0, 3.0), (1.0, 1.2))
        assert verdict.gap == pytest.approx(3.0 - 2.0 * 1.1)
        assert verdict.spread == pytest.approx(2.0 * 0.1414, rel=1e-3)
        assert verdict.verdict == "holds"

    def test_tracks_is_a_band_around_the_right_side(self):
        tracks = replace(self.ORDERING, kind="tracks", constant=0.1)
        assert judge(tracks, (1.02, 1.04), (1.0, 1.0)).verdict == "holds"
        assert judge(tracks, (0.7, 0.72), (1.0, 1.0)).verdict == "fails"
        assert judge(tracks, (1.05, 1.13), (1.0, 1.0)).verdict == "unresolved"

    def test_one_seed_has_no_spread_and_a_nan_resolves_nothing(self):
        assert judge(self.ORDERING, (2.0,), (1.0,)).verdict == "holds"
        assert judge(self.ORDERING, (1.0,), (1.0,)).verdict == "unresolved"
        assert judge(self.ORDERING, (float("nan"), 2.0), (1.0, 1.0)).verdict == "unresolved"


def test_an_observed_cell_measures_what_the_plain_cell_does():
    """The evaluator takes a cell's columns from its observed run when
    a full-result statistic wants that run anyway: all but the count of
    cwnd samples the observed run recorded are the plain run's."""
    config = paper_config(protocol="reno", n_clients=12, duration=4.0, mean_gap=0.02)
    observed = run_scenario(_observed(config))
    metrics = ScenarioMetrics.from_result(observed)
    assert metrics.obs_cwnd_samples > 0
    assert replace(metrics, obs_cwnd_samples=0) == ScenarioMetrics.from_result(
        run_scenario(config)
    )
    assert observed.cwnd_traces() and observed.dependence() is not None
    # Every full-result statistic is taken from every observed run, a
    # windowless transport's included.
    udp = run_scenario(_observed(config.with_(protocol="udp")))
    for name, measure in RESULT_STATISTICS.items():
        assert isinstance(float(measure(udp)), float), name


def test_no_slice_row_fails(claims_slice):
    assert {i for i, v in claims_slice.items() if v.verdict == "fails"} == set()
    assert len(claims_slice) >= 30
    for claim_id in HEADLINE:
        if claim_id != "F2.vegas-below-reno":  # needs the full 200 s; see the table
            assert claims_slice[claim_id].verdict == "holds", claim_id


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_a_mutation_flips_every_row_naming_it(name, monkeypatch, claims_slice):
    rows = [claim for claim in CLAIMS.values() if name in claim.falsified_by]
    monkeypatch.setattr(*MUTATIONS[name])
    mutated = evaluate_claims(rows, SLICE_BASE, SLICE_SEEDS, processes=1)
    for claim in rows:
        before = claims_slice[claim.id].verdict
        after = mutated[claim.id].verdict
        assert _RANK[after] < _RANK[before], f"{claim.id}: {before} -> {after}"


def test_rendering_says_what_was_measured_and_what_guards_it(claims_slice):
    text = render_claims(claims_slice)
    assert "## Figure 2" in text and "## Table 1" in text
    udp = next(line for line in text.splitlines() if "`F2.udp-tracks-poisson`" in line)
    assert "within 15% of" in udp and "±" in udp and "clients_share_one_stream" in udp
    plain = next(line for line in text.splitlines() if "`F4.loss-grows`" in line)
    assert plain.endswith("| *vacuous* | in the slice |")
    assert f"rows at {MARGIN:g} spreads" in text.splitlines()[-1]
    known = judge(CLAIMS["F4.vegas-red-highest"], (5.8, 5.9), (7.9, 7.8))
    assert "| fails (Deviation 2) |" in render_claims({"x": known})


def test_the_claims_subcommand_prints_the_tables_and_fails_on_a_failed_row(
    monkeypatch, capsys, tmp_path
):
    wrong = Claim(
        "X.negative", "F2", "§0", "The Poisson c.o.v. is negative", "ordering",
        0.0, Term("udp", (3,), "analytic_cov"),
    )
    rows = {"F5.uncongested": CLAIMS["F5.uncongested"], wrong.id: wrong}
    monkeypatch.setattr(claims_module, "CLAIMS", rows)
    argv = ["claims", "--duration", "4", "--replicas", "2", "--seed", "5"]
    out = tmp_path / "claims.json"
    code = main(argv + ["--json", str(out), "--cache-dir", str(tmp_path / "cache")])
    printed = capsys.readouterr().out
    assert "seeds 5, 6" in printed and "`X.negative`" in printed
    assert out.exists()
    # The row fails and the exit code says so ...
    assert code == 1 and "| fails |" in printed
    # ... unless it is a declared deviation.
    rows[wrong.id] = replace(wrong, deviation="Deviation 9")
    assert main(argv + ["--cache-dir", str(tmp_path / "cache")]) == 0
    assert "fails (Deviation 9)" in capsys.readouterr().out
