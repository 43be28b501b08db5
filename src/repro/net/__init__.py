"""Packet-level network substrate.

This package models the data path the paper's ns simulations used:
store-and-forward nodes connected by full-duplex links, each output port
fronted by a queueing discipline (drop-tail FIFO or RED), and a
dumbbell/star topology builder matching the paper's Figure 1.
"""

from repro.net.fq import DRRQueue
from repro.net.link import Interface, Link
from repro.net.monitor import ArrivalMonitor, FlowStats
from repro.net.node import Node
from repro.net.packet import Packet, PacketFactory, PacketType
from repro.net.queues import DropTailQueue, PacketQueue, QueueStats
from repro.net.red import REDParams, REDQueue, AdaptiveREDQueue
from repro.net.topology import DumbbellNetwork, DumbbellParams, build_dumbbell

__all__ = [
    "AdaptiveREDQueue",
    "ArrivalMonitor",
    "DRRQueue",
    "DropTailQueue",
    "DumbbellNetwork",
    "DumbbellParams",
    "FlowStats",
    "Interface",
    "Link",
    "Node",
    "Packet",
    "PacketFactory",
    "PacketType",
    "PacketQueue",
    "QueueStats",
    "REDParams",
    "REDQueue",
    "build_dumbbell",
]
