"""The batch flow engine.

This package holds the fast path for homogeneous TCP and UDP scenarios,
which ``run_scenario`` takes by default for every cell inside the batch
envelope (``repro.experiments.config.BATCH_ENVELOPE``):

* :mod:`repro.engine.transitions` -- the pure TCP window/RTT/RTO
  arithmetic the senders (:mod:`repro.transport.tcp_base`) evaluate,
  one function per rule;
* :mod:`repro.engine.batch` -- :class:`~repro.engine.batch.BatchScenario`,
  the fused event graph that replays the object engine's physics with a
  fraction of its simulator events.  It has no TCP of its own: it runs
  the :mod:`repro.transport` senders and sinks behind a node facade and
  a timer facade.

``tests/test_batch_differential.py`` pins the batch engine to the object
engine cell by cell: identical :class:`ScenarioMetrics`, identical obs
and forensics streams.

The ``BatchScenario`` import is lazy (PEP 562):
``repro.transport.tcp_base`` imports :mod:`repro.engine.transitions`
while ``batch`` imports the transport layer, so an eager re-export here
would be a cycle.
"""

#: The engine knob's forcing values (unset = pick per cell).
ENGINES = ("object", "batch")

__all__ = ["BatchScenario", "ENGINES"]


def __getattr__(name):
    if name == "BatchScenario":
        from repro.engine.batch import BatchScenario

        return BatchScenario
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
