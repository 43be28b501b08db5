"""The paper's network model (Figure 1): a client/server dumbbell.

``N`` clients each connect to a common gateway over a full-duplex access
link (``mu_c``, ``tau_c``); the gateway connects to the single server
over the bottleneck full-duplex link (``mu_s``, ``tau_s``).  The
gateway's output port toward the server carries the configurable
queueing discipline (FIFO or RED) with buffer size ``B``.  Every
parameter is read off the cell's
:class:`~repro.experiments.config.ScenarioConfig`, Table 1's one home.
"""

from __future__ import annotations

from typing import List, Optional

from repro.experiments.config import ACCESS_QUEUE_PACKETS, ScenarioConfig, paper_config
from repro.net.link import Interface, Link
from repro.net.node import Node
from repro.net.packet import PacketFactory
from repro.net.queues import DropTailQueue, PacketQueue
from repro.sim.engine import Simulator


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
        config: ScenarioConfig,
        bottleneck_queue: Optional[PacketQueue] = None,
    ) -> None:
        config.validate()
        self._wire(sim, config, bottleneck_queue)

    @classmethod
    def of_validated(
        cls,
        sim: Simulator,
        config: ScenarioConfig,
        bottleneck_queue: Optional[PacketQueue] = None,
    ) -> "DumbbellNetwork":
        """The same network for a config its caller has validated: a
        :class:`~repro.experiments.scenario.Scenario` validates its
        config before it builds anything, once a cell."""
        network = cls.__new__(cls)
        network._wire(sim, config, bottleneck_queue)
        return network

    def _wire(
        self,
        sim: Simulator,
        config: ScenarioConfig,
        bottleneck_queue: Optional[PacketQueue],
    ) -> None:
        self.sim = sim
        self.config = config
        self.packet_factory = PacketFactory()

        self.gateway = Node(sim, self.GATEWAY)
        self.server = Node(sim, self.SERVER)
        self.clients: List[Node] = [
            Node(sim, self.client_name(i)) for i in range(config.n_clients)
        ]

        # Bottleneck link; the gateway->server direction carries the
        # discipline under study, the reverse (ACK) direction a generous
        # drop-tail queue.
        if bottleneck_queue is None:
            bottleneck_queue = DropTailQueue(
                config.buffer_capacity, name="q:gateway->server"
            )
        Link(
            sim,
            self.gateway,
            self.server,
            config.bottleneck_rate_bps,
            config.bottleneck_delay,
            queue_ab=bottleneck_queue,
            queue_ba=DropTailQueue(ACCESS_QUEUE_PACKETS, name="q:server->gateway"),
        )

        # Access links.
        for client in self.clients:
            Link(
                sim,
                client,
                self.gateway,
                config.client_rate_bps,
                config.client_delay,
                queue_ab=DropTailQueue(
                    ACCESS_QUEUE_PACKETS, name=f"q:{client.name}->gateway"
                ),
                queue_ba=DropTailQueue(
                    ACCESS_QUEUE_PACKETS, name=f"q:gateway->{client.name}"
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
        return self.config.rtt_prop

    def ascii_diagram(self) -> str:
        """Render the Figure-1 topology for terminal output."""
        p = self.config
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
    sim: Simulator, config: Optional[ScenarioConfig] = None
) -> DumbbellNetwork:
    """Convenience constructor; ``config`` defaults to Table 1's."""
    return DumbbellNetwork(sim, config or paper_config())
