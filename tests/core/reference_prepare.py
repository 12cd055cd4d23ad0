"""Control-plane preparation as a composition of helpers — the reference.

``reference_prepare_update`` is the body
``P4UpdateController.prepare_update`` had before it became one walk
over P_n, verbatim (ports read straight from the network instead of
through the NIB cache), together with the helpers it composed as they
were then: ``distance_labels``, ``compute_gateways``,
``compute_segments``, ``nodes_to_update`` and ``choose_update_type``.
It computes P_o ∩ P_n three times and builds ``Segment`` objects to
read their last node; what it returns *is* the specification — every
UIM field, the chosen update type, the Flow-DB side effects and the
order in which a bad path pair is rejected.
``test_prepare_single_pass.py`` holds the controller's body equal to
it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.controller import P4UpdateController, PreparedUpdate
from repro.core.messages import UIM, UpdateType
from repro.core.registers import LOCAL_DELIVER_PORT
from repro.core.segmentation import Segment

SL_NODE_THRESHOLD = 5


def distance_labels(path: Sequence[str]) -> dict[str, int]:
    if len(path) < 2:
        raise ValueError("a path needs at least two nodes")
    if len(set(path)) != len(path):
        raise ValueError(f"path revisits a node: {path}")
    length = len(path) - 1
    return {node: length - i for i, node in enumerate(path)}


def compute_gateways(old_path: Sequence[str], new_path: Sequence[str]) -> list[str]:
    """Shared nodes of P_o and P_n, in new-path order."""
    old_set = set(old_path)
    return [node for node in new_path if node in old_set]


def compute_segments(
    old_path: Sequence[str], new_path: Sequence[str]
) -> list[Segment]:
    if old_path[0] != new_path[0] or old_path[-1] != new_path[-1]:
        raise ValueError("old and new paths must share ingress and egress")
    gateways = compute_gateways(old_path, new_path)
    old_dist = distance_labels(old_path)
    segments: list[Segment] = []
    indices = [i for i, node in enumerate(new_path) if node in set(gateways)]
    for start, end in zip(indices, indices[1:]):
        nodes = tuple(new_path[start : end + 1])
        ingress_gw, egress_gw = nodes[0], nodes[-1]
        forward = old_dist[ingress_gw] > old_dist[egress_gw]
        segments.append(Segment(nodes=nodes, forward=forward))
    return segments


def nodes_to_update(old_path: Sequence[str], new_path: Sequence[str]) -> set[str]:
    old_next = {a: b for a, b in zip(old_path, old_path[1:])}
    new_next = {a: b for a, b in zip(new_path, new_path[1:])}
    return {node for node, nxt in new_next.items() if old_next.get(node) != nxt}


def choose_update_type(
    old_path: Sequence[str],
    new_path: Sequence[str],
    threshold: int = SL_NODE_THRESHOLD,
) -> UpdateType:
    segments = compute_segments(old_path, new_path)
    only_forward = all(segment.forward for segment in segments)
    changed = nodes_to_update(old_path, new_path)
    if only_forward and len(changed) <= threshold:
        return UpdateType.SINGLE
    return UpdateType.DUAL


def reference_prepare_update(
    controller: P4UpdateController,
    flow_id: int,
    new_path: list[str],
    update_type: Optional[UpdateType] = None,
    congestion_aware: bool = True,
    stage_tag: Optional[int] = None,
) -> PreparedUpdate:
    record = controller.flow_db[flow_id]
    old_path = record.current_path
    if update_type is None:
        update_type = choose_update_type(old_path, new_path)
    version = controller.versions.next_version(flow_id)
    distances = distance_labels(new_path)
    if update_type is UpdateType.DUAL:
        segments = compute_segments(old_path, new_path)
        segment_egress = {s.egress_gateway for s in segments}
        gateways = set(compute_gateways(old_path, new_path))
    else:
        segment_egress = set()
        gateways = set()

    port = controller.network.port_towards
    ingress, egress = new_path[0], new_path[-1]
    size = record.flow.size if congestion_aware else 0.0
    uims = []
    for i, node in enumerate(new_path):
        is_egress = node == egress
        child = new_path[i - 1] if i > 0 else None
        parent = new_path[i + 1] if not is_egress else None
        uims.append(
            UIM(
                target=node,
                flow_id=flow_id,
                version=version,
                new_distance=distances[node],
                egress_port=(
                    LOCAL_DELIVER_PORT if is_egress else port(node, parent)
                ),
                flow_size=size if size > 0 else record.flow.size,
                update_type=update_type,
                child_port=port(node, child) if child else None,
                is_flow_egress=is_egress,
                is_segment_egress=node in segment_egress and not is_egress,
                is_ingress=node == ingress,
                is_gateway=node in gateways,
                stage_tag=stage_tag,
            )
        )
    record.pending_path = list(new_path)
    record.pending_version = version
    prepared = PreparedUpdate(
        flow_id=flow_id, version=version,
        update_type=update_type, uims=tuple(uims),
        old_path=tuple(old_path), new_path=tuple(new_path),
    )
    controller._prepared[(flow_id, version)] = prepared
    return prepared
