"""The experiment harness: the paper's simulation study, runnable.

* :mod:`repro.experiments.config` -- scenario configuration with the
  reconstructed Table 1 defaults.
* :mod:`repro.experiments.scenario` -- builds and runs one client/server
  simulation and extracts every metric the paper reports.
* :mod:`repro.experiments.sweep` -- runs grids of scenarios, optionally
  across processes.
* :mod:`repro.experiments.runner` -- fault-tolerant sweep executor:
  persistent worker pool launching cells largest first, timeouts,
  retries, and crash isolation.
* :mod:`repro.experiments.cache` -- content-addressed on-disk result
  cache keyed by :meth:`ScenarioConfig.config_digest`.
* :mod:`repro.experiments.runlog` -- JSONL progress telemetry.
* :mod:`repro.experiments.figures` -- the sweep and figure spec tables
  (one row per paper figure, one per sweep subcommand).
* :mod:`repro.experiments.results` -- flat result records and rendering.
* :mod:`repro.experiments.cli` -- the ``repro-tcp`` command-line tool.
"""

from repro.experiments.cache import ResultCache
from repro.experiments.config import (
    PROTOCOLS,
    QUEUES,
    WORKLOADS,
    ScenarioConfig,
    paper_config,
)
from repro.experiments.results import ScenarioMetrics
from repro.experiments.runlog import Progress, RunLog, read_runlog
from repro.experiments.runner import SweepRunner
from repro.experiments.scenario import Scenario, ScenarioResult, run_scenario
from repro.experiments.sweep import run_many
from repro.experiments.figures import (
    FIGURE2_PROTOCOLS,
    FORENSICS_PROTOCOLS,
    FigureData,
    cwnd_trace_experiment,
    figure2_cov,
    run_protocol_sweep,
)

__all__ = [
    "FIGURE2_PROTOCOLS",
    "FORENSICS_PROTOCOLS",
    "FigureData",
    "PROTOCOLS",
    "Progress",
    "QUEUES",
    "WORKLOADS",
    "ResultCache",
    "RunLog",
    "Scenario",
    "ScenarioConfig",
    "ScenarioMetrics",
    "ScenarioResult",
    "SweepRunner",
    "read_runlog",
    "cwnd_trace_experiment",
    "figure2_cov",
    "paper_config",
    "run_many",
    "run_protocol_sweep",
    "run_scenario",
]
