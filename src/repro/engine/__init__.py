"""The batch flow engine.

This package holds the fast path for homogeneous Reno, Vegas and
delayed-ACK Reno scenarios, which ``run_scenario`` takes by default for
every cell inside the batch envelope
(``repro.experiments.config.BATCH_ENVELOPE``); UDP cells run on the
object engine:

* :mod:`repro.engine.batch` -- :class:`~repro.engine.batch.BatchScenario`,
  the fused event graph that replays the object engine's physics with a
  fraction of its simulator events.  It has no TCP of its own: it runs
  the :mod:`repro.transport` senders and sinks (and, through them, the
  rules of :mod:`repro.transport.transitions`) behind a node facade and
  a timer facade.

``tests/test_batch_differential.py`` pins the batch engine to the object
engine cell by cell: identical :class:`ScenarioMetrics`, identical obs
and forensics streams.
"""

#: The engine knob's forcing values (unset = pick per cell).
ENGINES = ("object", "batch")
