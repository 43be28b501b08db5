"""Discrete-event simulation engine.

This package provides the event-driven substrate on which the network
model (:mod:`repro.net`), transport protocols (:mod:`repro.transport`),
and traffic generators (:mod:`repro.traffic`) are built.  It plays the
role that the scheduler core of the *ns* simulator played for the paper's
original experiments.

Public API:

* :class:`~repro.sim.engine.Simulator` -- the event loop and its
  calendar, one binary heap of pending events (the scheduler *ns*
  defaults to).
* :class:`~repro.sim.events.Event` -- a scheduled callback.
* :class:`~repro.sim.timers.Timer` -- a restartable one-shot timer.
* :class:`~repro.sim.rng.RandomStreams` -- named, reproducible random
  number streams derived from a single root seed.
"""

from repro.sim.engine import SCHEDULERS

__all__ = ["SCHEDULERS"]
