"""Build and run one client/server simulation (the paper's Section 3.1).

:class:`Scenario` wires together the dumbbell topology, one transport
sender per client with its sink at the server, Poisson traffic sources,
and the gateway instrumentation; :func:`run_scenario` runs it and
returns a :class:`~repro.experiments.results.ScenarioResult` carrying
every metric the paper's evaluation reports (c.o.v., throughput, loss
percentage, timeout / duplicate-ACK counts, congestion-window traces).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.apps.base import AppWorkload
from repro.apps.bsp import BspCoordinator, BspWorkload
from repro.apps.bulk import BulkTransferWorkload
from repro.apps.metrics import AppMetrics
from repro.apps.rpc import RpcClientWorkload
from repro.core import fluid_backend
from repro.core.cov import BinCounter, coefficient_of_variation
from repro.core.theory import poisson_aggregate_cov
from repro.experiments.config import ScenarioConfig
from repro.experiments.results import FlowSummary, ScenarioResult
from repro.forensics.probe import ForensicsParams, ForensicsProbe
from repro.net.monitor import ArrivalMonitor
from repro.net.fq import DRRQueue
from repro.obs.bundle import ObsBundle
from repro.obs.engineprof import EngineProfiler, peak_rss_kb
from repro.obs.probes import FlowProbe, QueueProbe
from repro.net.packet import Packet
from repro.net.queues import DropTailQueue, PacketQueue
from repro.net.red import AdaptiveREDQueue, REDParams, REDQueue
from repro.net.topology import DumbbellNetwork
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.traffic.base import TrafficSource
from repro.traffic.cbr import CbrSource
from repro.traffic.onoff import ParetoOnOffSource
from repro.traffic.poisson import PoissonSource
from repro.transport.base import Agent
from repro.transport.ecn import EcnRenoSender
from repro.transport.newreno import NewRenoSender
from repro.transport.reno import RenoSender
from repro.transport.sack import SackSender
from repro.transport.sink import TcpSink, UdpSink
from repro.transport.tahoe import TahoeSender
from repro.transport.tcp_base import TcpSender
from repro.transport.transitions import TcpParams
from repro.transport.udp import UdpSender
from repro.transport.vegas import VegasParams, VegasSender

_TCP_SENDERS = {
    "tahoe": TahoeSender,
    "reno": RenoSender,
    "reno_delack": RenoSender,
    "newreno": NewRenoSender,
    "sack": SackSender,
    "vegas": VegasSender,
    "reno_ecn": EcnRenoSender,
}


class Scenario:
    """A fully wired simulation, ready to run."""

    #: The flow engine this class is (``ScenarioResult.engine``).
    engine_name = "object"

    def __init__(self, config: ScenarioConfig) -> None:
        config.validate()
        self.config = config
        self.sim = Simulator()
        self.streams = RandomStreams(config.seed)

        # Flight recorder: a probe is attached only where one of its
        # trace categories is enabled, so the hot paths keep their bare
        # ``is not None`` guards.
        self.flow_probes: Dict[int, FlowProbe] = {}
        self.queue_probe: Optional[QueueProbe] = None
        self.profiler: Optional[EngineProfiler] = None
        if config.obs_profile:
            self.profiler = EngineProfiler()

        self.network = self._build_network()

        window = (config.effective_bin_width, config.warmup, config.duration)
        self.monitor = ArrivalMonitor(*window).attach(self.network.bottleneck_interface)
        # The offered traffic: every source or workload hooks ``add``.
        self.offered = BinCounter(*window)

        self.senders: List[Agent] = []
        self.sinks: List[Agent] = []
        self.sources: List[TrafficSource] = []
        self.apps: List[AppWorkload] = []
        self.bsp_coordinator: Optional[BspCoordinator] = None
        if config.workload == "bsp":
            self.bsp_coordinator = BspCoordinator(
                self.sim, release_delay=config.reverse_path_delay(1)
            )
        if "queue" in config.obs_trace or "drops" in config.obs_trace:
            self.queue_probe = QueueProbe(
                self.network.bottleneck_queue, config.obs_trace
            )
        # Burst forensics: one probe on the gateway queue, also handed
        # to every TCP sender (in _build_flows) for cwnd-cut events.
        self.forensics_probe: Optional[ForensicsProbe] = None
        if config.forensics:
            self.forensics_probe = ForensicsProbe(
                ForensicsParams.from_config(config),
                n_flows=config.n_clients,
                queue=self.network.bottleneck_queue,
            )
        self._build_flows()
        # Packet free-listing: after each executed event, packets that
        # nothing references any more (delivered, counted, dropped) are
        # returned to the factory for reuse.  Purely an allocation
        # optimization -- the engine's refcount guard means any packet
        # still held (retransmit buffers, monitors, traces) is exempt.
        self.sim.set_arg_recycler(
            Packet, self.network.packet_factory.recycle
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_network(self):
        """The topology: anything with ``bottleneck_interface``,
        ``bottleneck_queue`` and ``packet_factory`` (the batch engine
        substitutes its fused gateway)."""
        return DumbbellNetwork.of_validated(
            self.sim, self.config, self._make_bottleneck_queue()
        )

    def _make_bottleneck_queue(self) -> PacketQueue:
        """The gateway's discipline under study, built from the config."""
        config = self.config
        if config.queue == "fifo":
            return DropTailQueue(config.buffer_capacity, name="q:gateway->server")
        if config.queue == "drr":
            return DRRQueue(config.buffer_capacity, name="q:gateway->server")
        red_params = REDParams(
            min_th=config.red_min_th,
            max_th=config.red_max_th,
            max_p=config.red_max_p,
            weight=config.red_weight,
            ecn=(config.protocol == "reno_ecn"),
            idle_packet_time=config.packet_size * 8.0 / config.bottleneck_rate_bps,
        )
        red_rng = self.streams.stream("red")
        if config.queue == "ared":
            return AdaptiveREDQueue(
                config.buffer_capacity, red_params, red_rng, name="q:gateway->server"
            )
        return REDQueue(
            config.buffer_capacity, red_params, red_rng, name="q:gateway->server"
        )

    def _tcp_params(self) -> TcpParams:
        config = self.config
        return TcpParams(
            packet_size=config.packet_size,
            advertised_window=config.advertised_window,
            initial_ssthresh=float(config.advertised_window),
            # BSD/ns-2-era coarse retransmission timers (500 ms
            # granularity, a 3 s first RTO, config.min_rto's 1 s floor):
            # the timeout droughts and synchronized slow-start restarts
            # they produce are part of the burstiness the paper measures.
            tick=0.5,
            min_rto=config.min_rto,
            initial_rto=3.0,
            ecn=(config.protocol == "reno_ecn"),
            pacing=config.pacing,
        )

    def _build_flows(self) -> None:
        config = self.config
        network = self.network
        for index, client in enumerate(network.clients):
            sender, sink = self._add_flow(index, client, network.server, self.sim)
            if config.workload == "open":
                source = self._make_source(index, sender)
                source.add_hook(self.offered.add)
                source.start(at=0.0, stop_at=config.duration)
                self.sources.append(source)
            else:
                self._start_workload(index, sender, sink)

    def _add_flow(self, index: int, client, server, sink_sim) -> Tuple[Agent, Agent]:
        """Build flow ``index``'s sender on ``client`` and its sink on
        ``server``, probes attached: the one place a protocol name
        becomes transport objects.  Both engines call it -- the object
        engine with the topology's nodes, the batch engine with its node
        facades (a node is a ``name``, ``bind_flow`` and ``send`` to an
        agent) and, as ``sink_sim``, the clock its sinks run under."""
        config = self.config
        factory = self.network.packet_factory
        if config.protocol == "udp":
            sender: Agent = UdpSender(
                self.sim,
                client,
                index,
                server.name,
                factory,
                packet_size=config.packet_size,
            )
            sink: Agent = UdpSink(sink_sim, server, index, client.name, factory)
        else:
            sender_cls = _TCP_SENDERS[config.protocol]
            kwargs = {}
            if sender_cls is VegasSender:
                kwargs["vegas_params"] = VegasParams(
                    alpha=config.vegas_alpha,
                    beta=config.vegas_beta,
                    gamma=config.vegas_gamma,
                )
            sender = sender_cls(
                self.sim,
                client,
                index,
                server.name,
                factory,
                params=self._tcp_params(),
                **kwargs,
            )
            sink = TcpSink(
                sink_sim,
                server,
                index,
                client.name,
                factory,
                delayed_ack=(config.protocol == "reno_delack"),
                ack_delay=config.ack_delay,
                sack=(config.protocol == "sack"),
            )
            trace = config.obs_trace
            if "cwnd" in trace or "rtt" in trace or "state" in trace:
                self.flow_probes[index] = sender.attach_probe(
                    FlowProbe(index, trace)
                )
            if self.forensics_probe is not None:
                sender.forensics = self.forensics_probe
        self.senders.append(sender)
        self.sinks.append(sink)
        return sender, sink

    def _start_workload(self, index: int, sender: Agent, sink: Agent) -> None:
        app = self._make_workload(index, sender, sink)
        app.add_hook(self.offered.add)
        app.start(at=0.0, stop_at=self.config.duration)
        self.apps.append(app)

    def _make_source(self, index: int, sender: Agent) -> TrafficSource:
        config = self.config
        if config.traffic == "cbr":
            return CbrSource(
                self.sim, sender, gap=config.mean_gap, name=f"cbr-{index}"
            )
        if config.traffic == "pareto_onoff":
            # The source's defaults keep the long-run mean rate equal to
            # the paper's Poisson rate: duty cycle 0.5/(0.5+4.5) = 0.1 at
            # a 100 pkt/s peak, i.e. 10 pkt/s as at mean_gap = 0.1.
            return ParetoOnOffSource(
                self.sim,
                sender,
                rng=self.streams.stream(f"client-{index}/onoff"),
                name=f"onoff-{index}",
            )
        return PoissonSource(
            self.sim,
            sender,
            rng=self.streams.stream(f"client-{index}/poisson"),
            mean_gap=config.mean_gap,
            name=f"poisson-{index}",
        )

    def _make_workload(self, index: int, sender: Agent, sink: Agent) -> AppWorkload:
        config = self.config
        rng = self.streams.stream(f"client-{index}/app")
        if config.workload == "rpc":
            return RpcClientWorkload(
                self.sim,
                sender,
                sink,
                rng=rng,
                request_packets=config.rpc_request_packets,
                response_delay=config.reverse_path_delay(
                    config.rpc_response_packets
                ),
                think_time=config.rpc_think_time,
                outstanding=config.rpc_outstanding,
                name=f"rpc-{index}",
                unit_timeout=config.workload_timeout,
            )
        if config.workload == "bsp":
            assert self.bsp_coordinator is not None
            return BspWorkload(
                self.sim,
                sender,
                sink,
                rng=rng,
                coordinator=self.bsp_coordinator,
                shuffle_packets=config.bsp_shuffle_packets,
                compute_time=config.bsp_compute_time,
                name=f"bsp-{index}",
                unit_timeout=config.workload_timeout,
            )
        return BulkTransferWorkload(
            self.sim,
            sender,
            sink,
            rng=rng,
            job_packets=config.bulk_job_packets,
            job_gap=config.bulk_job_gap,
            name=f"bulk-{index}",
            unit_timeout=config.workload_timeout,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def attach_forensics_stream(self, sink, interval: float):
        """Stream forensics records to ``sink`` as the run progresses.

        Must be called before :meth:`run`; requires ``forensics=True``.
        Returns the :class:`~repro.forensics.stream.ForensicsStream`.
        """
        if self.forensics_probe is None:
            raise ValueError(
                "forensics streaming requires forensics=True on the config"
            )
        return self.forensics_probe.stream_to(sink, interval)

    def run(self) -> ScenarioResult:
        """Run to the configured duration and collect all metrics."""
        config = self.config
        if self.profiler is not None:
            self.sim.attach_profiler(self.profiler)
        start = time.perf_counter()
        try:
            self._execute()
        finally:
            wall_time = time.perf_counter() - start
            if self.profiler is not None:
                self.sim.detach_profiler()
        return self._collect(wall_time)

    def _execute(self) -> None:
        """Advance the simulation to the horizon (the timed part of
        :meth:`run`; engine subclasses override)."""
        self.sim.run(until=self.config.duration)

    def release(self) -> None:
        """Drop every reference this finished scenario's parts hold.

        The wired graph is cyclic many times over (pending calendar
        events -> bound methods -> components -> simulator; node <->
        interface; sender <-> timer; sink hook <-> workload), so
        without this it is garbage only a full collection frees --
        tens of MB per large cell, piling up across a sweep.  Emptied
        here, plain reference counting frees it when the caller lets
        go.  A :class:`ScenarioResult` already collected stays valid:
        it holds the logs, probes and reports themselves, not the
        components that filled them.  The scenario is unusable
        afterwards; :func:`run_scenario` calls this on the scenarios it
        builds, and nothing else does.
        """
        self.sim.shutdown()
        network = self.network
        parts = [self, *self.senders, *self.sinks, *self.sources, *self.apps]
        if isinstance(network, DumbbellNetwork):
            parts += [network.gateway, network.server, *network.clients]
        for part in parts:
            state = getattr(part, "__dict__", None)
            if state is not None:
                state.clear()

    def obs_bundle(self) -> Optional[ObsBundle]:
        """The run's flight-recorder bundle (None when nothing enabled)."""
        if (
            not self.flow_probes
            and self.queue_probe is None
            and self.profiler is None
            and self.forensics_probe is None
        ):
            return None
        return ObsBundle(
            categories=tuple(self.config.obs_trace),
            engine=(
                self.profiler.profile() if self.profiler is not None else None
            ),
            flows=dict(self.flow_probes),
            queue=self.queue_probe,
            forensics=(
                self.forensics_probe.finalize(self.config.duration)
                if self.forensics_probe is not None
                else None
            ),
        )

    def _collect(self, wall_time: float = float("nan")) -> ScenarioResult:
        config = self.config
        counts = self.monitor.counts()
        cov = coefficient_of_variation(counts)
        # The closed-form reference applies to the open-loop Poisson
        # workload only (closed-loop arrivals are not Poisson).
        if config.traffic == "poisson" and config.workload == "open":
            analytic = poisson_aggregate_cov(
                config.n_clients, config.per_client_rate, config.effective_bin_width
            )
        else:
            analytic = float("nan")

        offered_counts = self.offered.counts()
        offered_cov = coefficient_of_variation(offered_counts)

        per_flow: List[FlowSummary] = []
        timeouts = fast_retransmits = dupacks = 0
        latency_count = 0
        latency_sum = 0.0
        latency_max = 0.0
        delivered_total = 0
        for index, (sender, sink) in enumerate(zip(self.senders, self.sinks)):
            delivered = sink.stats.unique_packets
            delivered_total += delivered
            if isinstance(sender, TcpSender):
                stats = sender.stats
                timeouts += stats.timeouts
                fast_retransmits += stats.fast_retransmits
                dupacks += stats.dupacks_received
                latency_count += stats.latency_count
                latency_sum += stats.latency_sum
                latency_max = max(latency_max, stats.latency_max)
                per_flow.append(
                    FlowSummary(
                        flow_id=index,
                        app_packets=stats.app_packets,
                        packets_sent=stats.packets_sent,
                        retransmits=stats.retransmits,
                        delivered_unique=delivered,
                        timeouts=stats.timeouts,
                        fast_retransmits=stats.fast_retransmits,
                        dupacks=stats.dupacks_received,
                        mean_latency=stats.mean_latency,
                        max_latency=stats.latency_max,
                    )
                )
            else:
                generators = self.sources if self.sources else self.apps
                per_flow.append(
                    FlowSummary(
                        flow_id=index,
                        app_packets=generators[index].generated,
                        packets_sent=sender.packets_sent,
                        retransmits=0,
                        delivered_unique=delivered,
                        timeouts=0,
                        fast_retransmits=0,
                        dupacks=0,
                    )
                )

        queue = self.network.bottleneck_queue
        arrivals = queue.stats.arrivals
        drops = queue.stats.drops
        loss_percent = 100.0 * drops / arrivals if arrivals else 0.0
        duration = config.duration
        capacity_pps = config.bottleneck_capacity_pps
        throughput_pps = delivered_total / duration

        app = None
        if self.apps:
            app = AppMetrics.from_workloads(
                config.workload,
                self.apps,
                duration=duration,
                supersteps=(
                    self.bsp_coordinator.supersteps_completed
                    if self.bsp_coordinator is not None
                    else 0
                ),
            )

        return ScenarioResult(
            config=config,
            cov=cov,
            offered_cov=offered_cov,
            analytic_cov=analytic,
            throughput_packets=delivered_total,
            throughput_pps=throughput_pps,
            loss_percent=loss_percent,
            gateway_arrivals=arrivals,
            gateway_drops=drops,
            timeouts=timeouts,
            fast_retransmits=fast_retransmits,
            dupacks=dupacks,
            mean_latency=(latency_sum / latency_count) if latency_count else 0.0,
            max_latency=latency_max,
            bin_counts=counts,
            offered_bin_counts=offered_counts,
            per_flow=per_flow,
            mean_queue_length=queue.stats.mean_occupancy(duration),
            red_marks=queue.stats.marks,
            utilization=throughput_pps / capacity_pps if capacity_pps else 0.0,
            events_executed=self.sim.events_executed,
            per_flow_bin_counts=self.monitor.flow_counts(),
            app=app,
            wall_time=wall_time,
            peak_rss_kb=peak_rss_kb(),
            obs=self.obs_bundle(),
            forensics=(
                self.forensics_probe.finalize(duration)
                if self.forensics_probe is not None
                else None
            ),
            engine=self.engine_name,
        )


def run_scenario(config: ScenarioConfig, attach=None) -> ScenarioResult:
    """Build and run one scenario: the one door into a cell.

    Dispatches on ``config.backend``: the discrete-event packet engine
    (default), the mean-field fluid solver
    (:func:`repro.core.fluid_backend.run_fluid_scenario`), or the
    hybrid fluid/packet co-simulation
    (:class:`repro.core.hybrid_backend.HybridScenario`), all
    returning the same :class:`~repro.experiments.results.ScenarioResult`
    shape.

    Within the packet backend the flow engine follows from the input
    (``config.resolved_engine()``): a cell inside the batch envelope
    runs on :class:`repro.engine.batch.BatchScenario`, which is pinned
    bit-identical to the object engine by
    tests/test_batch_differential.py; every other cell runs on
    :class:`Scenario`.  If the batch run meets a same-time tie its
    order model cannot decide (:class:`~repro.engine.batch.BatchTieError`),
    the cell is run again on the object engine -- ``result.engine``
    says which engine the numbers came from -- unless the config forced
    ``engine="batch"``, in which case the error propagates.  The hybrid
    backend uses the object machinery for its K foreground flows
    regardless of ``engine`` (the knob is digest-excluded and accepted
    as a no-op there).

    ``attach(scenario)`` is called on every scenario built here, wired
    and not yet run -- so a second time, on the object scenario, after
    a fallback -- for what has to reach inside one (a trace writer on
    the bottleneck interface, a forensics stream).  Every scenario is
    released when its run ends; the fluid backend builds none.
    """
    if config.backend == "fluid":
        return fluid_backend.run_fluid_scenario(config)
    # Imported here because both modules subclass Scenario.
    if config.backend == "hybrid":
        from repro.core.hybrid_backend import HybridScenario

        return _run_and_release(HybridScenario(config), attach)
    if config.resolved_engine() == "batch":
        from repro.engine.batch import BatchScenario, BatchTieError

        try:
            return _run_and_release(BatchScenario(config), attach)
        except BatchTieError:
            if config.engine is not None:
                raise
    return _run_and_release(Scenario(config), attach)


def _run_and_release(scenario: Scenario, attach=None) -> ScenarioResult:
    try:
        if attach is not None:
            attach(scenario)
        return scenario.run()
    finally:
        scenario.release()
