"""Table 1: the simulation parameters (reconstructed).

Regenerates the parameter table and validates that a scenario built
from it is internally consistent (knee location, RTT, RED thresholds).
"""

from conftest import emit

from repro.analysis.tables import format_table
from repro.experiments.config import ScenarioConfig, table1_rows
from repro.experiments.scenario import run_scenario


def build_table():
    """The table, and the gateway buffer of a scenario built from it
    (read while the scenario is wired: it is released after its run)."""
    rows = table1_rows()
    config = ScenarioConfig(n_clients=4, duration=1.0)
    buffers = []
    run_scenario(
        config,
        attach=lambda s: buffers.append(s.network.bottleneck_queue.capacity),
    )
    return rows, buffers


def test_table1_parameters(benchmark):
    rows, buffers = benchmark.pedantic(build_table, rounds=1, iterations=1)
    emit(
        format_table(
            ["Parameter", "Value"],
            rows,
            title="Table 1: Simulation Parameters (reconstructed; see DESIGN.md)",
        )
    )
    config = ScenarioConfig()
    emit(
        "derived: rtt_prop = {:.3f} s (c.o.v. bin width); congestion knee at "
        "~{:.1f} clients; bottleneck = {:.0f} pkt/s".format(
            config.rtt_prop,
            config.congestion_knee_clients,
            config.bottleneck_capacity_pps,
        )
    )
    assert len(rows) == 14
    assert buffers == [50]
