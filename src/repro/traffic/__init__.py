"""Traffic generation: flows, paths, and the gravity traffic model."""

from repro.traffic.flows import Flow, FlowSet
from repro.traffic.gravity import gravity_matrix, gravity_flow_sizes
from repro.traffic.paths import second_shortest_path

__all__ = [
    "Flow",
    "FlowSet",
    "gravity_matrix",
    "gravity_flow_sizes",
    "second_shortest_path",
]
