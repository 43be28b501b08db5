"""Shared test fixtures: stub nodes and hand-driven TCP harnesses."""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.experiments.config import paper_config
from repro.experiments.results import ScenarioMetrics
from repro.net.node import Node
from repro.net.packet import Packet, PacketFactory
from repro.obs.engineprof import EngineProfiler
from repro.sim.engine import Simulator


#: What tier-1 evaluates the claims table's slice at (the
#: ``claims_slice`` fixture): short runs measured after a warm-up, so
#: the start-up transient -- which at 30 s is a third of a run and
#: reads as burstiness for every TCP -- stays out of the c.o.v. bins.
SLICE_BASE = paper_config(duration=30.0, warmup=10.0)
SLICE_SEEDS = (11, 22, 33)


#: The three modes of the kernel's one run loop.
KERNEL_MODES = ("fast", "profiled", "debug")


def kernel_in_mode(mode: str) -> Simulator:
    """A simulator whose ``run`` is plain, profiled or invariant-checking."""
    sim = Simulator(debug=(mode == "debug"))
    if mode == "profiled":
        sim.attach_profiler(EngineProfiler())
    return sim


def subcommand_parsers() -> Dict[str, Any]:
    """``{subcommand: its ArgumentParser}`` of the ``repro-tcp`` CLI."""
    from repro.experiments.cli import build_parser

    return next(
        action for action in build_parser()._actions if action.dest == "command"
    ).choices


def physics_payload(metrics: ScenarioMetrics) -> Dict[str, Any]:
    """The record minus wall-clock telemetry (nondeterministic)."""
    return {
        key: value
        for key, value in metrics.as_dict().items()
        if key not in ScenarioMetrics._WALL_CLOCK_FIELDS
    }


class CaptureNode(Node):
    """A node that records what agents transmit instead of forwarding."""

    def __init__(self, sim: Simulator, name: str = "capture") -> None:
        super().__init__(sim, name)
        self.transmitted: List[Packet] = []

    def send(self, packet: Packet) -> None:  # overrides routing entirely
        self.transmitted.append(packet)

    def data_seqnos(self) -> List[int]:
        """Sequence numbers of captured DATA packets, in order."""
        return [p.seqno for p in self.transmitted if p.is_data]


class TcpHarness:
    """Drive a TCP sender by hand: feed ACKs, observe transmissions.

    The sender sits on a :class:`CaptureNode`; nothing is actually
    delivered, so tests control time (via the simulator) and the ACK
    stream completely.
    """

    def __init__(self, sender_cls, sender_kwargs: Optional[dict] = None) -> None:
        self.sim = Simulator()
        self.node = CaptureNode(self.sim)
        self.factory = PacketFactory()
        self.sender = sender_cls(
            self.sim,
            self.node,
            flow_id=0,
            peer="peer",
            packet_factory=self.factory,
            **(sender_kwargs or {}),
        )

    @property
    def transmitted(self) -> List[Packet]:
        return self.node.transmitted

    def sent_seqnos(self) -> List[int]:
        return self.node.data_seqnos()

    def give_app_packets(self, n: int) -> None:
        """Hand ``n`` application packets to the sender."""
        self.sender.app_arrival(n)

    def deliver_ack(self, ackno: int, ecn_echo: bool = False) -> None:
        """Inject an ACK into the sender at the current time."""
        ack = self.factory.ack(
            flow_id=0,
            src="peer",
            dst=self.node.name,
            ackno=ackno,
            now=self.sim.now,
            ecn_echo=ecn_echo,
        )
        self.sender.receive(ack)

    def advance(self, dt: float) -> None:
        """Run the simulator forward ``dt`` seconds."""
        self.sim.run(until=self.sim.now + dt)

    def ack_all_outstanding(self) -> None:
        """Cumulatively acknowledge everything transmitted so far."""
        if self.sender.maxseq >= 0:
            self.deliver_ack(self.sender.maxseq)
