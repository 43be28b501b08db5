"""Nodes: endpoints and store-and-forward routers.

A node delivers packets addressed to it to the transport agent bound to
the packet's flow id, and forwards everything else along a static route.
Static routing is all the paper's star topology needs.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from repro.net.packet import Packet
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.link import Interface
    from repro.transport.base import Agent


class RoutingError(RuntimeError):
    """Raised when a packet cannot be forwarded or delivered."""


class Node:
    """A network node (client, gateway, or server)."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.interfaces: Dict[str, "Interface"] = {}
        self._routes: Dict[str, str] = {}
        self._default_route: Optional[str] = None
        self._agents: Dict[int, "Agent"] = {}
        self.packets_forwarded = 0
        self.packets_delivered = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_interface(self, neighbor: str, interface: "Interface") -> None:
        """Attach the output port that reaches ``neighbor``."""
        self.interfaces[neighbor] = interface

    def add_route(self, dst: str, via: str) -> None:
        """Route packets for node ``dst`` out the port facing ``via``."""
        if via not in self.interfaces:
            raise RoutingError(f"{self.name}: no interface toward {via!r}")
        self._routes[dst] = via

    def set_default_route(self, via: str) -> None:
        """Route packets with no explicit route out the port facing ``via``."""
        if via not in self.interfaces:
            raise RoutingError(f"{self.name}: no interface toward {via!r}")
        self._default_route = via

    def bind_flow(self, flow_id: int, agent: "Agent") -> None:
        """Deliver packets of ``flow_id`` addressed to this node to ``agent``."""
        if flow_id in self._agents:
            raise ValueError(f"{self.name}: flow {flow_id} already bound")
        self._agents[flow_id] = agent

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Entry point for packets arriving from a link.

        The per-hop path: :meth:`_deliver` / :meth:`forward` with the
        lookups done in place, called only for the packet they raise on.
        """
        dst = packet.dst
        if dst == self.name:
            agent = self._agents.get(packet.flow_id)
            if agent is None:
                return self._deliver(packet)
            self.packets_delivered += 1
            agent.receive(packet)
        else:
            via = self._routes.get(dst, self._default_route)
            if via is None:
                return self.forward(packet)
            self.packets_forwarded += 1
            self.interfaces[via].send(packet)

    def forward(self, packet: Packet) -> None:
        """Send ``packet`` out the port its destination routes to."""
        via = self._routes.get(packet.dst, self._default_route)
        if via is None:
            raise RoutingError(f"{self.name}: no route to {packet.dst!r}")
        self.packets_forwarded += 1
        self.interfaces[via].send(packet)

    def send(self, packet: Packet) -> None:
        """Origination path used by local transport agents."""
        self.forward(packet)

    def _deliver(self, packet: Packet) -> None:
        agent = self._agents.get(packet.flow_id)
        if agent is None:
            raise RoutingError(
                f"{self.name}: no agent bound for flow {packet.flow_id}"
            )
        self.packets_delivered += 1
        agent.receive(packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Node {self.name} ifaces={list(self.interfaces)}>"
