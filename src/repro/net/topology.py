"""The paper's network model (Figure 1): a client/server dumbbell.

``N`` clients each connect to a common gateway over a full-duplex access
link (``mu_c``, ``tau_c``); the gateway connects to the single server
over the bottleneck full-duplex link (``mu_s``, ``tau_s``).  The
gateway's output port toward the server carries the configurable
queueing discipline (FIFO or RED) with buffer size ``B``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.net.link import Interface, Link
from repro.net.node import Node
from repro.net.packet import PacketFactory
from repro.net.queues import DropTailQueue, PacketQueue
from repro.sim.engine import Simulator

@dataclass
class DumbbellParams:
    """Physical parameters of the dumbbell (paper's Table 1 symbols)."""

    n_clients: int = 20
    client_rate_bps: float = 10e6  # mu_c
    client_delay: float = 0.002  # tau_c
    bottleneck_rate_bps: float = 3e6  # mu_s
    bottleneck_delay: float = 0.200  # tau_s
    buffer_capacity: int = 50  # B, packets
    access_queue_capacity: int = 1000  # effectively lossless access ports

    @property
    def rtt_prop(self) -> float:
        """Round-trip propagation delay (the c.o.v. binning window)."""
        return 2.0 * (self.client_delay + self.bottleneck_delay)

    def validate(self) -> None:
        """Raise ValueError on nonsensical parameters."""
        if self.n_clients < 1:
            raise ValueError("need at least one client")
        if self.client_rate_bps <= 0 or self.bottleneck_rate_bps <= 0:
            raise ValueError("link rates must be positive")
        if self.client_delay < 0 or self.bottleneck_delay < 0:
            raise ValueError("delays cannot be negative")
        if self.buffer_capacity < 1:
            raise ValueError("gateway buffer must hold at least one packet")


class DumbbellNetwork:
    """The constructed topology with named handles to its pieces.

    ``bottleneck_queue`` is the discipline under study on the gateway's
    port toward the server (default: drop-tail of ``buffer_capacity``).
    """

    GATEWAY = "gateway"
    SERVER = "server"

    def __init__(
        self,
        sim: Simulator,
        params: DumbbellParams,
        bottleneck_queue: Optional[PacketQueue] = None,
    ) -> None:
        params.validate()
        self.sim = sim
        self.params = params
        self.packet_factory = PacketFactory()

        self.gateway = Node(sim, self.GATEWAY)
        self.server = Node(sim, self.SERVER)
        self.clients: List[Node] = [
            Node(sim, self.client_name(i)) for i in range(params.n_clients)
        ]

        # Bottleneck link; the gateway->server direction carries the
        # discipline under study, the reverse (ACK) direction a generous
        # drop-tail queue.
        if bottleneck_queue is None:
            bottleneck_queue = DropTailQueue(
                params.buffer_capacity, name="q:gateway->server"
            )
        Link(
            sim,
            self.gateway,
            self.server,
            params.bottleneck_rate_bps,
            params.bottleneck_delay,
            queue_ab=bottleneck_queue,
            queue_ba=DropTailQueue(
                params.access_queue_capacity, name="q:server->gateway"
            ),
        )

        # Access links.
        for client in self.clients:
            Link(
                sim,
                client,
                self.gateway,
                params.client_rate_bps,
                params.client_delay,
                queue_ab=DropTailQueue(
                    params.access_queue_capacity, name=f"q:{client.name}->gateway"
                ),
                queue_ba=DropTailQueue(
                    params.access_queue_capacity, name=f"q:gateway->{client.name}"
                ),
            )
            # Static routes: clients send everything via the gateway ...
            client.set_default_route(self.GATEWAY)
            # ... and the gateway knows each client by name.
            self.gateway.add_route(client.name, client.name)
        self.gateway.add_route(self.SERVER, self.SERVER)
        self.server.set_default_route(self.GATEWAY)

    # ------------------------------------------------------------------
    # Handles
    # ------------------------------------------------------------------
    @staticmethod
    def client_name(index: int) -> str:
        """Canonical node name of client ``index``."""
        return f"client-{index}"

    @property
    def bottleneck_interface(self) -> Interface:
        """The gateway's output port toward the server."""
        return self.gateway.interfaces[self.SERVER]

    @property
    def bottleneck_queue(self) -> PacketQueue:
        """The queueing discipline under study."""
        return self.bottleneck_interface.queue

    @property
    def rtt_prop(self) -> float:
        """Round-trip propagation delay between a client and the server."""
        return self.params.rtt_prop

    def ascii_diagram(self) -> str:
        """Render the Figure-1 topology for terminal output."""
        p = self.params
        lines = [
            "client-0   \\",
            f"client-1    \\   mu_c={p.client_rate_bps/1e6:g} Mbps",
            f"  ...        >--[ gateway | B={p.buffer_capacity} pkts ]"
            f"==( mu_s={p.bottleneck_rate_bps/1e6:g} Mbps,"
            f" tau_s={p.bottleneck_delay*1e3:g} ms )==> [ server ]",
            f"client-{p.n_clients - 1}   /    tau_c={p.client_delay*1e3:g} ms",
        ]
        return "\n".join(lines)


def build_dumbbell(
    sim: Simulator, params: Optional[DumbbellParams] = None
) -> DumbbellNetwork:
    """Convenience constructor with default (paper Table 1) parameters."""
    return DumbbellNetwork(sim, params or DumbbellParams())
