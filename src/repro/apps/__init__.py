"""Closed-loop application workloads for the distributed-computing half
of the paper's title.

The paper's clients are *open loop*: Poisson/CBR/Pareto sources hand
packets to TCP at a rate that never reacts to the network.  The
workloads in this package close the loop -- they issue application
*work units* (RPC requests, BSP shuffle phases, bulk-transfer jobs)
into a transport agent and only issue the next unit after observing
delivery completions at the sink, so TCP backpressure feeds back into
the offered load, as it does in a real distributed computing system.

* :mod:`repro.apps.base` -- the :class:`AppWorkload` abstraction
  (work-unit accounting, completion detection, unit timeouts).
* :mod:`repro.apps.rpc` -- closed-loop request/response RPC clients.
* :mod:`repro.apps.bsp` -- bulk-synchronous-parallel supersteps with a
  global barrier (straggler / barrier-stall amplification).
* :mod:`repro.apps.bulk` -- fixed-size checkpoint/file-transfer jobs
  with job-completion-time as the metric.
* :mod:`repro.apps.metrics` -- :class:`AppMetrics`, the job-level
  summary threaded into scenario results and sweeps.
"""
