"""Gateways and path segmentation (paper §3.2).

Gateway nodes G are the nodes shared by the old path P_o and the new
path P_n.  Segments are the stretches of P_n between consecutive
gateways.  A segment is **forward** when its ingress gateway's old
distance is larger than its egress gateway's old distance (packets
move closer to the destination w.r.t. P_o — updating it cannot create
a loop) and **backward** otherwise (it must wait for downstream
segments).

For Fig. 1 (old v0-v4-v2-v7, new v0-v1-v2-v3-v4-v5-v6-v7):
G = {v0, v4, v2, v7}; segments {v0,v1,v2} forward, {v2,v3,v4}
backward, {v4,v5,v6,v7} forward.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.labeling import distance_labels


@dataclass(frozen=True)
class Segment:
    """One segment of the new path between two gateway nodes.

    ``nodes`` runs in new-path direction: ingress gateway first,
    egress gateway last.  ``forward`` is the §3.2 classification.
    """

    nodes: tuple[str, ...]
    forward: bool

    @property
    def ingress_gateway(self) -> str:
        return self.nodes[0]

    @property
    def egress_gateway(self) -> str:
        return self.nodes[-1]

    @property
    def interior(self) -> tuple[str, ...]:
        return self.nodes[1:-1]

    def __len__(self) -> int:
        return len(self.nodes)


def old_distances(
    old_path: Sequence[str], new_path: Sequence[str]
) -> dict[str, int]:
    """D_o of every P_o node — the one analysis of a path pair.

    A P_n node is a gateway iff it has a D_o; the segment between two
    consecutive gateways is forward iff D_o falls along it.  Raises
    when the paths do not share both endpoints (the flow's ingress and
    egress are gateways by definition).
    """
    if old_path[0] != new_path[0] or old_path[-1] != new_path[-1]:
        raise ValueError("old and new paths must share ingress and egress")
    return distance_labels(old_path)


def compute_segments(
    old_path: Sequence[str], new_path: Sequence[str]
) -> list[Segment]:
    """Split P_n into segments between consecutive gateways."""
    old_dist = old_distances(old_path, new_path)
    segments: list[Segment] = []
    # Walk the new path, cutting at gateways.
    indices = [i for i, node in enumerate(new_path) if node in old_dist]
    for start, end in zip(indices, indices[1:]):
        nodes = tuple(new_path[start : end + 1])
        ingress_gw, egress_gw = nodes[0], nodes[-1]
        forward = old_dist[ingress_gw] > old_dist[egress_gw]
        segments.append(Segment(nodes=nodes, forward=forward))
    return segments


def nodes_to_update(old_path: Sequence[str], new_path: Sequence[str]) -> set[str]:
    """Nodes whose forwarding rule changes (plus newly installed ones).

    Used by the §7.5 strategy: SL is chosen when few nodes change and
    all segments are forward.
    """
    old_next = {a: b for a, b in zip(old_path, old_path[1:])}
    new_next = {a: b for a, b in zip(new_path, new_path[1:])}
    return {node for node, nxt in new_next.items() if old_next.get(node) != nxt}
