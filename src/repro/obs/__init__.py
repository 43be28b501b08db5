"""The flight-recorder observability layer.

One subsystem for everything the simulator can tell you about itself
and about the protocols it runs:

* :mod:`repro.obs.series`     -- :class:`TimeSeries`, the sampled
  ``(time, *values)`` rows every probe records into.
* :mod:`repro.obs.engineprof` -- wall-clock profiling of the event
  engine (events/sec, per-callback-category time, heap depth,
  sim-time/wall-time ratio).
* :mod:`repro.obs.probes`     -- per-flow TCP probes (cwnd / ssthresh /
  RTT estimate / state transitions) and queue probes (occupancy, RED
  average, per-cause drops), each recording only the trace categories
  it was built with.
* :mod:`repro.obs.bundle`     -- :class:`ObsBundle`, the package of
  captured series a :class:`~repro.experiments.results.ScenarioResult`
  carries, with the scalar snapshot derived from them and JSONL/CSV
  export.
"""
