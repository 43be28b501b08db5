"""repro: reproduction of Tinnakornsrisuphap, Feng & Philp (ICDCS 2000),
"On the Burstiness of the TCP Congestion-Control Mechanism in a
Distributed Computing System".

The package contains a packet-level discrete-event network simulator
(the substrate the paper built on ns), packet-counted implementations of
UDP and TCP Tahoe/Reno/NewReno/Vegas with FIFO and RED gateways, the
paper's traffic-burstiness analysis (per-RTT coefficient of variation),
and an experiment harness that regenerates every table and figure of the
paper's evaluation.

Quickstart::

    from repro.experiments.config import paper_config
    from repro.experiments.scenario import run_scenario

    result = run_scenario(paper_config(protocol="reno", n_clients=40,
                                       duration=30.0))
    print(result.cov, result.analytic_cov, result.loss_percent)
"""
