"""The experiment harness: the paper's simulation study, runnable.

* :mod:`repro.experiments.config` -- scenario configuration with the
  reconstructed Table 1 defaults.
* :mod:`repro.experiments.results` -- what one cell returns: the full
  result, its flat sweep record, and rendering.
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
* :mod:`repro.experiments.cli` -- the ``repro-tcp`` command-line tool.
"""
