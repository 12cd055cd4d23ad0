"""Deterministic discrete-event simulator.

This package replaces the Mininet emulation of the original artifact.
Time is simulated (milliseconds, float); every run with the same seed is
bit-for-bit reproducible.
"""

from repro.sim.engine import Engine, Event
from repro.sim.node import Node
from repro.sim.links import Link, ControlChannel
from repro.sim.network import Network
from repro.sim.trace import Trace, TraceEvent
from repro.sim.faults import FaultModel, FaultAction

__all__ = [
    "Engine",
    "Event",
    "Node",
    "Link",
    "ControlChannel",
    "Network",
    "Trace",
    "TraceEvent",
    "FaultModel",
    "FaultAction",
]
