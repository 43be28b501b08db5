"""The vectorized flow-batch engine.

This package holds the fast path for homogeneous TCP and UDP scenarios,
which ``run_scenario`` takes by default for every cell inside the batch
envelope (``repro.experiments.config.BATCH_ENVELOPE``):

* :mod:`repro.engine.transitions` -- the pure TCP window/RTT arithmetic,
  shared verbatim by the per-flow object senders
  (:mod:`repro.transport.tcp_base`) and the batch engine, so the two
  implementations cannot drift apart expression by expression;
* :mod:`repro.engine.flowbatch` -- the struct-of-arrays per-flow state
  (:class:`~repro.engine.flowbatch.FlowBatch`) plus the Reno/Vegas batch
  policies operating on it, and the UDP counters;
* :mod:`repro.engine.batch` -- :class:`~repro.engine.batch.BatchScenario`,
  the fused event graph that replays the object engine's physics with a
  fraction of its simulator events.

``tests/test_batch_differential.py`` pins the batch engine to the object
engine cell by cell: identical :class:`ScenarioMetrics`, identical obs
and forensics streams.

The submodule imports are lazy (PEP 562): ``repro.transport.tcp_base``
imports :mod:`repro.engine.transitions` while ``flowbatch``/``batch``
import the transport layer, so an eager re-export here would be a cycle.
"""

#: The engine knob's forcing values (unset = pick per cell).
ENGINES = ("object", "batch")

__all__ = ["BatchScenario", "ENGINES", "FlowBatch"]


def __getattr__(name):
    if name == "FlowBatch":
        from repro.engine.flowbatch import FlowBatch

        return FlowBatch
    if name == "BatchScenario":
        from repro.engine.batch import BatchScenario

        return BatchScenario
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
