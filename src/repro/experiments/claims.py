"""The paper's claims, stated once: one table, one evaluator, one renderer.

The paper *is* a short list of shape claims -- who is burstier than
whom, where the knee falls, what RED costs.  :data:`CLAIMS` states each
of them once, as a row beside ``FIGURES`` and ``SWEEPS``
(:mod:`repro.experiments.figures`): an id, the paper artefact and
section, the claim in one sentence, and a predicate over *terms*.  A
:class:`Term` is a statistic of named cells (:data:`CELLS`: a set of
``paper_config`` overrides) averaged over client counts -- a
:class:`ScenarioMetrics` column or, for the handful that read a full
``ScenarioResult``, a row of :data:`RESULT_STATISTICS`.  The predicate
is one of three kinds:

* ``ordering`` -- ``left > right``;
* ``ratio``    -- ``left > constant x right``;
* ``tracks``   -- ``|left - right| < constant x |right|`` (the right
  side is a closed form: a column such as ``analytic_cov``, a number
  derived from Table 1, or an uncongested twin of the left cell).

No verdict rests on a bare constant.  Every cell runs under each of the
evaluation's seeds; a term's *spread* is the seed-to-seed standard
deviation of its value, and a claim **holds** only when its gap clears
zero by :data:`MARGIN` spreads, **fails** only when it falls short by
as much, and is **unresolved** in between -- so "inside the noise at
this duration" is a verdict, not a pass.

:func:`evaluate_claims` runs the union of the rows' cells, de-duplicated
by ``config_digest``, through :func:`~repro.experiments.sweep.run_many`
(pool, cache, run log and ``--resume`` apply; the full-result cells go
through ``run_scenario``), and :func:`render_claims` prints the verdict
tables of EXPERIMENTS.md.  ``repro-tcp claims`` is the two in a row.

What makes the table a test and not a restatement is
``tests/test_claims.py``: each row names in ``falsified_by`` the
one-line physics mutations that must flip it, and the test applies
them.  A row nothing flips is rendered as *vacuous*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import fmean
from typing import Callable, Dict, Iterable, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.analysis.timeseries import (
    all_decrease_events,
    sample_step_series,
    synchronization_fraction,
    uniform_grid,
)
from repro.experiments.config import ScenarioConfig
from repro.experiments.figures import FIGURE2_PROTOCOLS, default_traced_flows
from repro.experiments.results import ScenarioMetrics, ScenarioResult
from repro.experiments.scenario import run_scenario
from repro.experiments.sweep import run_many

#: How many seed-to-seed spreads a gap must clear zero by to count.
MARGIN = 2.0

#: Every artefact a row may name, in print order, with its heading.
ARTEFACTS: Dict[str, str] = {
    "T1": "Table 1 — simulation parameters",
    "F2": "Figure 2 — c.o.v. of the aggregated traffic vs. number of clients",
    "F3": "Figure 3 — throughput vs. number of clients",
    "F4": "Figure 4 — packet loss percentage vs. number of clients",
    "F5–9": "Figures 5–9 — TCP Reno congestion-window evolution",
    "F10–12": "Figures 10–12 — TCP Vegas congestion-window evolution",
    "F13": "Figure 13 — ratio of timeouts to duplicate ACKs",
    "dependence": "Mechanism check (Sections 2.2/3.2) — stream dependence",
    "ablation/buffer": "Ablation — gateway buffer size (Reno, 45 clients)",
    "ablation/vegas": "Ablation — Vegas thresholds vs. the buffer (45 clients)",
    "ablation/red": "Ablation — RED configuration (Reno, 45 clients)",
    "ablation/recovery": "Ablation — loss-recovery lineage (45 clients)",
    "ablation/pacing": "Ablation — sender pacing (Reno)",
    "ablation/fq": "Ablation — per-flow scheduling at the gateway (45 clients)",
    "ablation/heavytail": "Ablation — heavy-tailed input vs. TCP (45 clients)",
    "workload/rpc": "Closed-loop workload — RPC",
    "workload/bsp": "Closed-loop workload — BSP supersteps",
    "workload/bulk": "Closed-loop workload — bulk transfers",
}

#: Named cells: ``paper_config`` overrides.  Figure 2's legend first.
CELLS: Dict[str, Dict[str, object]] = {
    **{
        key: {"protocol": protocol, "queue": queue}
        for key, (protocol, queue) in FIGURE2_PROTOCOLS.items()
    },
    "reno_b12": {"protocol": "reno", "buffer_capacity": 12},
    "reno_b200": {"protocol": "reno", "buffer_capacity": 200},
    # N·alpha..N·beta against B = 50 at 45 clients: 22..67 is feasible,
    # the paper's (1, 3) asks 45..135, (2, 4) asks 90..180.
    "vegas_feasible": {"protocol": "vegas", "vegas_alpha": 0.5, "vegas_beta": 1.5},
    "vegas_aggressive": {"protocol": "vegas", "vegas_alpha": 2.0, "vegas_beta": 4.0},
    "reno_red_5_15": {
        "protocol": "reno", "queue": "red", "red_min_th": 5.0, "red_max_th": 15.0,
    },
    "reno_red_25_50": {
        "protocol": "reno", "queue": "red", "red_min_th": 25.0, "red_max_th": 50.0,
    },
    "reno_ared": {"protocol": "reno", "queue": "ared"},
    "tahoe": {"protocol": "tahoe"},
    "newreno": {"protocol": "newreno"},
    "sack": {"protocol": "sack"},
    "reno_paced": {"protocol": "reno", "pacing": True},
    "reno_drr": {"protocol": "reno", "queue": "drr"},
    "udp_pareto": {"protocol": "udp", "traffic": "pareto_onoff"},
    "reno_pareto": {"protocol": "reno", "traffic": "pareto_onoff"},
    "reno_rpc": {"protocol": "reno", "workload": "rpc"},
    "reno_bsp": {"protocol": "reno", "workload": "bsp"},
    "reno_bulk": {"protocol": "reno", "workload": "bulk"},
    "udp_bulk": {"protocol": "udp", "workload": "bulk"},
}


def _dependence(attribute: str) -> Callable[[ScenarioResult], float]:
    def measure(result: ScenarioResult) -> float:
        report = result.dependence()
        return float("nan") if report is None else float(getattr(report, attribute))

    return measure


def _traced(result: ScenarioResult) -> Dict[int, List[Tuple[float, float]]]:
    """The window traces the statistics read: the first, middle and last
    of the run's packet flows (:func:`default_traced_flows`)."""
    return result.cwnd_traces(default_traced_flows(len(result.per_flow)))


def _late_decreases(result: ScenarioResult) -> float:
    """Window decreases in the last quarter of the run: the paper's
    "never stabilizes", counted."""
    start = 0.75 * result.config.duration
    return sum(1 for t, _flow in all_decrease_events(_traced(result)) if t > start)


def _steady_window_cov(result: ScenarioResult) -> float:
    """Mean over the traced flows of the window's c.o.v. across the
    second half of the run (the steady state Figures 5-12 show); NaN
    for a transport with no window to trace."""
    duration = result.config.duration
    grid = uniform_grid(duration / 2.0, duration, 0.25)
    covs = []
    for trace in _traced(result).values():
        values = sample_step_series(trace, grid, initial=1.0)
        covs.append(float(values.std() / values.mean()))
    return fmean(covs) if covs else float("nan")


#: The statistics that read a full ``ScenarioResult``.  Their cells go
#: through ``run_scenario`` in-process, recording every flow's window
#: (:func:`_observed`), one run per cell for all of its statistics;
#: everything else is a ``ScenarioMetrics`` column.
RESULT_STATISTICS: Dict[str, Callable[[ScenarioResult], float]] = {
    "variance_excess": _dependence("variance_excess_ratio"),
    "mean_correlation": _dependence("mean_correlation"),
    "acf_lag1": _dependence("aggregate_acf_lag1"),
    "cwnd_decreases": lambda r: len(all_decrease_events(_traced(r))),
    "late_cwnd_decreases": _late_decreases,
    "cwnd_synchrony": lambda r: synchronization_fraction(_traced(r)),
    "steady_window_cov": _steady_window_cov,
}


def _observed(config: ScenarioConfig) -> ScenarioConfig:
    return config.with_(obs_trace=("cwnd",))


class Term(NamedTuple):
    """One side of a claim: ``statistic`` of the cell named ``cell``,
    averaged over ``clients`` (the reducer: "mean over N >= 38" is a
    term whose ``clients`` are the counts past the knee)."""

    cell: str
    clients: Tuple[int, ...]
    statistic: str

    def configs(self, base: ScenarioConfig, seed: int) -> List[ScenarioConfig]:
        """The cells this term reads under one seed, in client order."""
        return [
            base.with_(**CELLS[self.cell], n_clients=n, seed=seed) for n in self.clients
        ]

    def __str__(self) -> str:
        return f"`{self.cell}` {self.statistic} @{','.join(map(str, self.clients))}"


Side = Union[Term, float]


@dataclass(frozen=True)
class Claim:
    """One row of :data:`CLAIMS`."""

    id: str
    #: Key of :data:`ARTEFACTS`.
    artefact: str
    #: The paper section the claim is made (or, for an ablation, used) in.
    section: str
    #: The claim, in one sentence (no ``|``: it is a markdown cell).
    claim: str
    #: "ordering", "ratio" or "tracks" (see the module docstring).
    kind: str
    left: Side
    right: Side
    #: ratio: the factor; tracks: the relative tolerance; ordering: 1.
    constant: float = 1.0
    #: The named mutations of tests/test_claims.py that must flip this
    #: row out of "holds".  Empty: nothing is known to, and the row
    #: renders as vacuous.
    falsified_by: Tuple[str, ...] = ()
    #: Empty for a row of the tier-1 slice; otherwise why it is left
    #: out of it.
    not_in_slice: str = ""
    #: Non-empty when this reproduction is known not to support the
    #: paper's claim: where EXPERIMENTS.md's Deviations discuss it.
    #: Such a row is reported like any other but is never fatal.
    deviation: str = ""

    @property
    def terms(self) -> List[Term]:
        return [side for side in (self.left, self.right) if isinstance(side, Term)]


#: Client counts the rows share, so the tier-1 slice shares cells: one
#: load below the knee (37.5 clients), one just past it, one far past.
LIGHT, HEAVY, LOADS = (20,), (45, 60), (20, 45, 60)
_KNEE = ScenarioConfig().congestion_knee_clients

#: Why a row is outside the tier-1 slice (tests/helpers.py: 30 simulated
#: seconds measured after a 10-s warm-up, 3 seeds, ~20 s of wall time).
_SHORT = "inside the spread of a 30-s run"
_COST = "resolves in a 30-s run, but its cells are outside the slice's shared grid"


def _pair(left: str, right: str, statistic: str, clients=HEAVY) -> Tuple[Term, Term]:
    """The same statistic at the same loads in two cells."""
    return Term(left, clients, statistic), Term(right, clients, statistic)


_ROWS = (
    Claim(
        "T1.knee", "T1", "§3.1",
        "Table 1 puts the congestion knee at 37.5 clients: past it an "
        "uncontrolled aggregate loses exactly the excess, 1 − 37.5/N",
        "tracks", Term("udp", (45,), "loss_percent"), 100.0 * (1.0 - _KNEE / 45), 0.05,
    ),
    # ------------------------------------------------------------ Figure 2
    Claim(
        "F2.udp-tracks-poisson", "F2", "§3.2",
        "UDP tracks the analytic Poisson curve 1/√(N·T/λ) below, at and past the knee",
        "tracks", Term("udp", LOADS, "cov"), Term("udp", LOADS, "analytic_cov"), 0.15,
        falsified_by=("clients_share_one_stream",),
    ),
    Claim(
        "F2.reno-above-poisson", "F2", "§3.2",
        "Under heavy congestion Reno's c.o.v. is far above the Poisson value "
        "(paper: > 140 % above; asserted: > 50 % above)",
        "ratio", Term("reno", HEAVY, "cov"), Term("reno", HEAVY, "analytic_cov"), 1.5,
        falsified_by=("ssthresh_not_halved",),
    ),
    Claim(
        "F2.reno-above-udp", "F2", "§3.2",
        "Reno is burstier than UDP carrying the same Poisson sources",
        "ordering", *_pair("reno", "udp", "cov"),
    ),
    Claim(
        "F2.moderate", "F2", "§3.2",
        "Below the knee (20–30 clients) Reno already sits above the Poisson "
        "curve (paper: up to ~50 %)",
        "ordering", Term("reno", (20, 30), "cov"), Term("reno", (20, 30), "analytic_cov"),
        not_in_slice=_SHORT,
    ),
    Claim(
        "F2.red-worst", "F2", "§3.4",
        "RED makes Reno burstier: Reno/RED is the worst curve",
        "ordering", *_pair("reno_red", "reno", "cov"),
        falsified_by=("red_never_drops_early",),
    ),
    Claim(
        "F2.vegas-below-reno", "F2", "§3.3",
        "Vegas stays smoother than Reno under heavy congestion",
        "ordering", *_pair("reno", "vegas", "cov"),
        falsified_by=("vegas_sees_no_queue",),
    ),
    Claim(
        "F2.red-hurts-vegas", "F2", "§3.4",
        "RED makes Vegas burstier too (Vegas/RED above Vegas)",
        "ordering", *_pair("vegas_red", "vegas", "cov"),
        not_in_slice=_SHORT,
    ),
    Claim(
        "F2.vegas-red-below-reno", "F2", "§3.3",
        "Vegas/RED still stays below plain Reno",
        "ordering", *_pair("reno", "vegas_red", "cov"),
        not_in_slice=_SHORT,
    ),
    Claim(
        "F2.delack-below-reno", "F2", "§3.2",
        "Reno with delayed ACKs is smoother than Reno",
        "ordering", *_pair("reno", "reno_delack", "cov"),
        not_in_slice=_COST,
    ),
    Claim(
        "F2.delack-above-vegas", "F2", "§3.3",
        "Reno with delayed ACKs is still burstier than Vegas",
        "ordering", *_pair("reno_delack", "vegas", "cov"),
        not_in_slice="Vegas's start-up transient outlasts a 30-s run: reads the wrong way round there",
    ),
    # ------------------------------------------------------------ Figure 3
    Claim(
        "F3.saturates", "F3", "§3.3",
        "Past the knee Reno's throughput saturates near the bottleneck capacity",
        "tracks", Term("reno", HEAVY, "utilization"), 1.0, 0.1,
        falsified_by=("never_leaves_slow_start",),
    ),
    Claim(
        "F3.red-costs-reno", "F3", "§3.4",
        "Plain Reno delivers more than Reno/RED under heavy congestion",
        "ordering", *_pair("reno", "reno_red", "throughput_packets"),
        falsified_by=("red_never_drops_early",),
    ),
    Claim(
        "F3.red-costs-vegas", "F3", "§3.4",
        "Plain Vegas delivers more than Vegas/RED under heavy congestion",
        "ordering", *_pair("vegas", "vegas_red", "throughput_packets"),
        falsified_by=("red_never_drops_early",),
    ),
    Claim(
        "F3.vegas-at-least-reno", "F3", "§3.3",
        "Vegas delivers at least what Reno does",
        "ordering", *_pair("vegas", "reno", "throughput_packets"),
        not_in_slice=_SHORT,
    ),
    # ------------------------------------------------------------ Figure 4
    Claim(
        "F4.loss-grows", "F4", "§3.3",
        "Reno's loss grows with congestion (60 clients vs. 30)",
        "ordering", Term("reno", (60,), "loss_percent"), Term("reno", (30,), "loss_percent"),
    ),
    Claim(
        "F4.vegas-below-reno", "F4", "§3.3",
        "Plain Vegas loses less than Reno",
        "ordering", *_pair("reno", "vegas", "loss_percent"),
        falsified_by=("vegas_sees_no_queue",),
    ),
    Claim(
        "F4.vegas-below-delack", "F4", "§3.3",
        "Plain Vegas loses less than Reno with delayed ACKs (Vegas is the lowest curve)",
        "ordering", *_pair("reno_delack", "vegas", "loss_percent"),
        not_in_slice=_SHORT,
    ),
    Claim(
        "F4.red-raises-reno", "F4", "§3.4",
        "RED raises Reno's loss",
        "ordering", *_pair("reno_red", "reno", "loss_percent"),
    ),
    Claim(
        "F4.red-raises-vegas", "F4", "§3.4",
        "RED raises Vegas's loss",
        "ordering", *_pair("vegas_red", "vegas", "loss_percent"),
        falsified_by=("red_never_drops_early",),
    ),
    Claim(
        "F4.vegas-red-above-reno", "F4", "§3.4",
        "Vegas/RED loses more than plain Reno at 60 clients",
        "ordering", *_pair("vegas_red", "reno", "loss_percent", (60,)),
        not_in_slice=_SHORT,
    ),
    Claim(
        "F4.vegas-red-highest", "F4", "§3.4",
        "Vegas/RED loses more than even Reno/RED at 60 clients",
        "ordering", *_pair("vegas_red", "reno_red", "loss_percent", (60,)),
        deviation="Deviation 2",
        not_in_slice="see its deviation",
    ),
    # ------------------------------------------------------- Figures 5-9
    Claim(
        "F5.uncongested", "F5–9", "§3.2",
        "20 clients is uncongested: Reno's loss stays under half a percent",
        "ordering", 0.5, Term("reno", LIGHT, "loss_percent"),
    ),
    Claim(
        "F8.never-settles", "F5–9", "§3.2",
        "Past the crossover (39 clients) window decreases persist into the "
        "last quarter of the run; at 30 clients they have died out",
        "ordering", Term("reno", (39,), "late_cwnd_decreases"),
        Term("reno", (30,), "late_cwnd_decreases"),
    ),
    Claim(
        "F9.never-settles", "F5–9", "§3.2",
        "At 60 clients window decreases persist into the last quarter too",
        "ordering", Term("reno", (60,), "late_cwnd_decreases"),
        Term("reno", (30,), "late_cwnd_decreases"),
    ),
    Claim(
        "F8.activity-grows", "F5–9", "§3.2",
        "Congestion-control activity grows across the crossover (39 and 60 "
        "clients vs. 30)",
        "ordering", Term("reno", (39, 60), "cwnd_decreases"),
        Term("reno", (30,), "cwnd_decreases"),
    ),
    Claim(
        "F7.settles-at-38", "F5–9", "§3.2",
        "38 clients still stabilizes where 39 never does (the paper's "
        "38/39 crossover)",
        "ordering", Term("reno", (39,), "late_cwnd_decreases"),
        Term("reno", (38,), "late_cwnd_decreases"),
        not_in_slice=_SHORT,
    ),
    Claim(
        "F9.synchronized", "F5–9", "§3.2",
        "At 60 clients most window decreases coincide (±1 s) with another "
        "traced flow's: the streams' decisions are synchronized",
        "ordering", Term("reno", (60,), "cwnd_synchrony"), 0.5,
    ),
    # ----------------------------------------------------- Figures 10-12
    Claim(
        "F10-12.fair", "F10–12", "§3.3",
        "Vegas shares the bottleneck fairly at every load (Jain index near 1)",
        "tracks", Term("vegas", LOADS, "fairness"), 1.0, 0.15,
    ),
    Claim(
        "F12.steadier-windows", "F10–12", "§3.3",
        "At 60 clients Vegas's steady-state windows fluctuate less than Reno's",
        "ordering", *_pair("reno", "vegas", "steady_window_cov", (60,)),
    ),
    # ----------------------------------------------------------- Figure 13
    Claim(
        "F13.vegas-below-reno", "F13", "§3.3",
        "Vegas resolves losses with duplicate ACKs: its timeout/dup-ACK "
        "ratio is below Reno's",
        "ordering", *_pair("reno", "vegas", "timeout_dupack_ratio"),
        not_in_slice=_SHORT,
    ),
    Claim(
        "F13.vegas-red-below-reno-red", "F13", "§3.3",
        "The same under RED: Vegas/RED's ratio is below Reno/RED's",
        "ordering", *_pair("reno_red", "vegas_red", "timeout_dupack_ratio"),
        falsified_by=("red_never_drops_early",),
    ),
    Claim(
        "F13.reno-grows", "F13", "§3.3",
        "Reno's timeout/dup-ACK ratio grows with congestion (60 clients vs. 30)",
        "ordering", Term("reno", (60,), "timeout_dupack_ratio"),
        Term("reno", (30,), "timeout_dupack_ratio"),
    ),
    Claim(
        "F13.reno-timeouts", "F13", "§3.3",
        "Reno takes more coarse timeouts than Vegas",
        "ordering", *_pair("reno", "vegas", "timeouts"),
        falsified_by=("vegas_sees_no_queue",),
    ),
    # ---------------------------------------------------------- dependence
    Claim(
        "DEP.udp-independent", "dependence", "§2.2",
        "UDP carries the independent Poisson streams transparently: "
        "var(sum)/sum(var) stays at 1",
        "tracks", Term("udp", (45,), "variance_excess"), 1.0, 0.2,
        not_in_slice=_SHORT,
    ),
    Claim(
        "DEP.reno-couples", "dependence", "§3.2",
        "Reno couples the streams: var(sum) exceeds sum(var) (asserted: by > 30 %)",
        "ratio", Term("reno", (45,), "variance_excess"), 1.0, 1.3,
        not_in_slice=_SHORT,
    ),
    Claim(
        "DEP.reno-above-udp", "dependence", "§3.2",
        "Reno's variance excess is above UDP's",
        "ordering", *_pair("reno", "udp", "variance_excess", (45,)),
        not_in_slice=_SHORT,
    ),
    Claim(
        "DEP.reno-correlates", "dependence", "§3.2",
        "Reno's mean pairwise stream correlation is above UDP's",
        "ordering", *_pair("reno", "udp", "mean_correlation", (45,)),
        not_in_slice=_SHORT,
    ),
    Claim(
        "DEP.reno-acf", "dependence", "§3.2",
        "The coupling is temporal structure too: Reno's aggregate lag-1 "
        "autocorrelation is above UDP's",
        "ordering", *_pair("reno", "udp", "acf_lag1", (45,)),
        not_in_slice=_SHORT,
    ),
    Claim(
        "DEP.red-couples-hardest", "dependence", "§3.4",
        "RED couples Reno's streams harder than droptail does",
        "ordering", *_pair("reno_red", "reno", "variance_excess", (45,)),
    ),
    Claim(
        "DEP.vegas-couples-least", "dependence", "§3.3",
        "Vegas couples the streams less than Reno",
        "ordering", *_pair("reno", "vegas", "variance_excess", (45,)),
        not_in_slice=_SHORT,
    ),
    # ------------------------------------------------------------ ablations
    Claim(
        "ABL.buffer.loss", "ablation/buffer", "§3.2 (ref. [10])",
        "A 12-packet buffer loses more than a 200-packet one",
        "ordering", *_pair("reno_b12", "reno_b200", "loss_percent", (45,)),
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.buffer.timeouts", "ablation/buffer", "§3.2 (ref. [10])",
        "A small buffer forces more timeout recoveries",
        "ordering", *_pair("reno_b12", "reno_b200", "timeouts", (45,)),
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.buffer.throughput", "ablation/buffer", "§3.2 (ref. [10])",
        "Throughput improves with buffering at this load",
        "ordering", *_pair("reno_b200", "reno_b12", "throughput_packets", (45,)),
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.vegas.paper-loss", "ablation/vegas", "§3.4",
        "Once N·α outgrows the buffer Vegas loses: the paper's (1, 3) above "
        "the feasible (0.5, 1.5)",
        "ordering", *_pair("vegas", "vegas_feasible", "loss_percent", (45,)),
        falsified_by=("vegas_sees_no_queue",),
    ),
    Claim(
        "ABL.vegas.aggressive-loss", "ablation/vegas", "§3.4",
        "(2, 4) loses more than the feasible setting",
        "ordering", *_pair("vegas_aggressive", "vegas_feasible", "loss_percent", (45,)),
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.vegas.aggressive-timeouts", "ablation/vegas", "§3.4",
        "(2, 4) takes more timeouts than the feasible setting",
        "ordering", *_pair("vegas_aggressive", "vegas_feasible", "timeouts", (45,)),
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.vegas.feasible-smoothest", "ablation/vegas", "§3.4",
        "The feasible setting is also smoother than the paper's",
        "ordering", *_pair("vegas", "vegas_feasible", "cov", (45,)),
    ),
    Claim(
        "ABL.red.band-queue", "ablation/red", "§3.4",
        "A 5/15 band holds the queue lower than a 25/50 band",
        "ordering", *_pair("reno_red_25_50", "reno_red_5_15", "mean_queue_length", (45,)),
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.red.band-throughput", "ablation/red", "§3.4",
        "Widening the band toward the physical buffer recovers throughput",
        "ordering", *_pair("reno_red_25_50", "reno_red_5_15", "throughput_packets", (45,)),
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.red.adaptive", "ablation/red", "§3.4 (ref. [5])",
        "Adaptive RED matches droptail's throughput",
        "tracks", *_pair("reno_ared", "reno", "throughput_packets", (45,)), 0.05,
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.recovery.sack-ratio", "ablation/recovery", "§4",
        "Better recovery means fewer coarse timeouts per fast retransmit: "
        "SACK below Reno",
        "ordering", *_pair("reno", "sack", "timeout_fastrtx_ratio", (45,)),
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.recovery.sack-timeouts", "ablation/recovery", "§4",
        "SACK takes fewer timeouts than Reno",
        "ordering", *_pair("reno", "sack", "timeouts", (45,)),
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.recovery.tahoe-reno", "ablation/recovery", "§4",
        "Burstiness falls along the recovery lineage: Tahoe above Reno",
        "ordering", *_pair("tahoe", "reno", "cov", (45,)),
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.recovery.reno-newreno", "ablation/recovery", "§4",
        "... Reno above NewReno",
        "ordering", *_pair("reno", "newreno", "cov", (45,)),
        not_in_slice=_SHORT,
    ),
    Claim(
        "ABL.recovery.newreno-sack", "ablation/recovery", "§4",
        "... NewReno above SACK",
        "ordering", *_pair("newreno", "sack", "cov", (45,)),
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.recovery.sack-throughput", "ablation/recovery", "§4",
        "SACK sustains Reno-level throughput (asserted: ≥ 95 %)",
        "ratio", *_pair("sack", "reno", "throughput_packets", (45,)), 0.95,
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.pacing.noop", "ablation/pacing", "§4",
        "Uncongested (20 clients), pacing changes nothing: same throughput",
        "tracks", *_pair("reno_paced", "reno", "throughput_packets", LIGHT), 0.02,
        not_in_slice=_SHORT,
    ),
    Claim(
        "ABL.pacing.cov", "ablation/pacing", "§4",
        "At 60 clients pacing does not remove the aggregate burstiness "
        "(asserted: paced ≥ 90 % of unpaced)",
        "ratio", *_pair("reno_paced", "reno", "cov", (60,)), 0.9,
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.pacing.throughput", "ablation/pacing", "§4",
        "... and it buys no throughput",
        "ordering", *_pair("reno", "reno_paced", "throughput_packets", (60,)),
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.fq.fairness", "ablation/fq", "§1",
        "DRR with longest-queue drop delivers at least droptail's fairness "
        "(asserted: ≥ 98 % of its Jain index)",
        "ratio", *_pair("reno_drr", "reno", "fairness", (45,)), 0.98,
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.fq.throughput", "ablation/fq", "§1",
        "DRR's throughput stays competitive with droptail's (asserted: ≥ 90 %)",
        "ratio", *_pair("reno_drr", "reno", "throughput_packets", (45,)), 0.9,
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.fq.cov", "ablation/fq", "§1",
        "But the c.o.v. inflation survives the scheduler: the senders make "
        "it (asserted: > 20 % above Poisson)",
        "ratio", Term("reno_drr", (45,), "cov"), Term("reno_drr", (45,), "analytic_cov"), 1.2,
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.heavytail.source", "ablation/heavytail", "§1 (refs. [11, 14–16, 19])",
        "Pareto on/off input is burstier at the source than Poisson input "
        "(asserted: > 2 ×)",
        "ratio", *_pair("udp_pareto", "udp", "offered_cov", (45,)), 2.0,
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.heavytail.udp-transparent", "ablation/heavytail", "§1 (refs. [11, 14–16, 19])",
        "... and UDP carries that burstiness to the gateway (asserted: > 2 ×)",
        "ratio", *_pair("udp_pareto", "udp", "cov", (45,)), 2.0,
        not_in_slice=_COST,
    ),
    Claim(
        "ABL.heavytail.reno-paces", "ablation/heavytail", "§1 (refs. [11, 14–16, 19])",
        "Reno's window clamp smooths heavy-tailed input: Pareto/Reno below "
        "Pareto/UDP",
        "ordering", *_pair("udp_pareto", "reno_pareto", "cov", (45,)),
        not_in_slice=_COST,
    ),
    # ------------------------------------------------------------ workloads
    Claim(
        "WL.rpc.completes", "workload/rpc", "§1",
        "The closed loop throttles itself: Reno completes its requests "
        "below and past the knee",
        "ordering", Term("reno_rpc", (20, 45), "app_units_completed"), 0.0,
    ),
    Claim(
        "WL.bsp.completes", "workload/bsp", "§1",
        "Reno finishes supersteps below and past the knee",
        "ordering", Term("reno_bsp", (20, 45), "app_supersteps"), 0.0,
    ),
    Claim(
        "WL.bulk.completes", "workload/bulk", "§1",
        "Reno completes 200-packet jobs at 20 clients",
        "ordering", Term("reno_bulk", LIGHT, "app_units_completed"), 0.0,
    ),
    Claim(
        "WL.bulk.udp-never", "workload/bulk", "§1",
        "UDP blasts those jobs through a 50-packet buffer and never "
        "repairs the losses: it completes fewer jobs than Reno",
        "ordering", *_pair("reno_bulk", "udp_bulk", "app_units_completed", LIGHT),
    ),
)

#: Every claim, by id, in print order.
CLAIMS: Dict[str, Claim] = {row.id: row for row in _ROWS}


@dataclass(frozen=True)
class Verdict:
    """One evaluated row: what was measured, and what it says."""

    claim: Claim
    #: Per-seed values of each side (a constant repeats).
    left: Tuple[float, ...]
    right: Tuple[float, ...]
    #: What the predicate needs above zero, and its seed-to-seed spread.
    gap: float
    spread: float
    #: "holds", "fails" or "unresolved".
    verdict: str


def _spread(values: Sequence[float]) -> float:
    """Seed-to-seed standard deviation (0 under one seed; NaN, like the
    mean, when a value is not finite)."""
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def judge(claim: Claim, left: Sequence[float], right: Sequence[float]) -> Verdict:
    """The verdict of ``claim`` on per-seed values of its two sides."""
    lhs, rhs = fmean(left), fmean(right)
    if claim.kind == "tracks":
        gap = claim.constant * abs(rhs) - abs(lhs - rhs)
        spread = math.hypot(_spread(left), _spread(right))
    else:
        gap = lhs - claim.constant * rhs
        spread = math.hypot(_spread(left), claim.constant * _spread(right))
    if gap - MARGIN * spread > 0:
        verdict = "holds"
    elif gap + MARGIN * spread < 0:
        verdict = "fails"
    else:  # inside the spread -- or not finite: a failed cell, an empty trace
        verdict = "unresolved"
    return Verdict(claim, tuple(left), tuple(right), gap, spread, verdict)


def claim_cells(
    claims: Iterable[Claim],
    base: ScenarioConfig,
    seeds: Sequence[int],
    observed_only: bool = False,
) -> Dict[str, ScenarioConfig]:
    """Every cell ``claims`` read under ``seeds``, by config digest
    (``observed_only``: those a :data:`RESULT_STATISTICS` term reads)."""
    return {
        config.config_digest(): config
        for claim in claims
        for term in claim.terms
        if not observed_only or term.statistic in RESULT_STATISTICS
        for seed in seeds
        for config in term.configs(base, seed)
    }


def evaluate_claims(
    claims: Iterable[Claim],
    base: ScenarioConfig,
    seeds: Sequence[int],
    **runner_kwargs,
) -> Dict[str, Verdict]:
    """Run what ``claims`` need under each of ``seeds`` and judge them.

    The union of cells goes through one :func:`run_many`
    (``runner_kwargs`` are its: ``processes``, ``cache``, ``run_log``,
    ...); a failed cell reads NaN, which leaves its rows unresolved.
    A cell some :data:`RESULT_STATISTICS` row reads runs here instead,
    in-process through ``run_scenario``, once for every statistic --
    its columns included -- that any row takes from it.
    """
    claims = list(claims)
    if not seeds:
        raise ValueError("need at least one seed")
    cells = claim_cells(claims, base, seeds)
    observed = claim_cells(claims, base, seeds, observed_only=True)
    plain = [digest for digest in cells if digest not in observed]
    metrics = dict(
        zip(plain, run_many([cells[digest] for digest in plain], **runner_kwargs))
    )
    from_result: Dict[str, Dict[str, float]] = {}
    for digest, config in observed.items():
        result = run_scenario(_observed(config))
        metrics[digest] = ScenarioMetrics.from_result(result)
        from_result[digest] = {
            name: float(measure(result)) for name, measure in RESULT_STATISTICS.items()
        }

    def cell_value(config: ScenarioConfig, statistic: str) -> float:
        digest = config.config_digest()
        if statistic in RESULT_STATISTICS:
            return from_result[digest][statistic]
        record = metrics[digest]
        return float("nan") if record.failed else float(getattr(record, statistic))

    def per_seed(side: Side) -> List[float]:
        if not isinstance(side, Term):
            return [float(side)] * len(seeds)
        return [
            fmean(cell_value(c, side.statistic) for c in side.configs(base, seed))
            for seed in seeds
        ]

    return {
        claim.id: judge(claim, per_seed(claim.left), per_seed(claim.right))
        for claim in claims
    }


def _number(value: float) -> str:
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.3g}"


def _measured(side: Side, values: Sequence[float]) -> str:
    if not isinstance(side, Term):
        return _number(side)
    return f"{side} = {_number(fmean(values))} ± {_number(_spread(values))}"


_RELATION = {"ordering": ">", "ratio": "> {c:g} ×", "tracks": "within {c:.0%} of"}


def render_claims(verdicts: Dict[str, Verdict]) -> str:
    """The verdict tables, as markdown: one section per artefact, one
    row per claim -- id, sentence, both sides as mean ± seed-to-seed
    spread, the gap in spreads, the verdict, the mutations that flip it
    and whether tier-1 evaluates it (or why not)."""
    lines: List[str] = []
    for artefact, heading in ARTEFACTS.items():
        rows = [v for v in verdicts.values() if v.claim.artefact == artefact]
        if not rows:
            continue
        lines += [
            f"## {heading}",
            "",
            "| id | § | claim | measured (mean ± spread over seeds) | gap | verdict "
            "| flipped by | tier-1 |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for v in rows:
            claim = v.claim
            relation = _RELATION[claim.kind].format(c=claim.constant)
            gap = "—" if v.spread == 0 else f"{v.gap / v.spread:+.1f} spreads"
            verdict = v.verdict + (f" ({claim.deviation})" if claim.deviation else "")
            lines.append(
                f"| `{claim.id}` | {claim.section} | {claim.claim} | "
                f"{_measured(claim.left, v.left)} {relation} "
                f"{_measured(claim.right, v.right)} | {gap} | {verdict} | "
                f"{', '.join(claim.falsified_by) or '*vacuous*'} | "
                f"{claim.not_in_slice or 'in the slice'} |"
            )
        lines.append("")
    counts = {
        name: sum(v.verdict == name for v in verdicts.values())
        for name in ("holds", "unresolved", "fails")
    }
    lines.append(
        f"{len(verdicts)} rows at {MARGIN:g} spreads: "
        + ", ".join(f"{n} {name}" for name, n in counts.items())
        + "."
    )
    return "\n".join(lines)
