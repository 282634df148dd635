"""Simulated distributed environment: virtual time, nodes, faulty network.

This package is the substitute for the paper's real machines and network (see
DESIGN.md §2).  Everything is driven by one deterministic
:class:`~repro.net.clock.EventClock`, so any failure scenario can be replayed
bit-for-bit.
"""

from .clock import EventClock, SimulationError
from .network import LatencyModel, Message, Network, NetworkStats
from .node import Node, NodeCrashed, Service

__all__ = [
    "EventClock",
    "LatencyModel",
    "Message",
    "Network",
    "NetworkStats",
    "Node",
    "NodeCrashed",
    "Service",
    "SimulationError",
]
