"""What the controller prepares for one flow update, written from the docs.

The oracle of ``tests/core/test_prepare_spec.py``.  For one Flow-DB
record (P_o, the flow's size, the last version allocated to the flow and
its pending update, if any), a new path P_n, an ``update_type`` and a
``stage_tag`` it predicts everything ``prepare_update`` does: the
prepared update (every UIM field, the chosen type, both paths), the
Flow-DB side effects (pending path and version, the flow's version
counter, the re-trigger store) and, for a bad pair, the exception, its
text and whether a version number was spent.

It is written from docs/PROTOCOL.md ("Setup" and "What the controller
prepares") and the paper's §3.2, §7.5 and §9.1, and imports nothing from
``repro.core.controller``, ``segmentation``, ``labeling`` or
``strategy``, the code it checks.  Where the docs leave a choice, the
reading the shipped controller makes is encoded here and named in
docs/PROTOCOL.md, "Readings"; each such line is marked ``# Reading:``.

A prediction is a plain dict, so the test compares it with ``==``; the
prepared update is the dict of ``PreparedUpdate``'s fields.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from repro.core.messages import UIM, UpdateType
from repro.core.registers import LOCAL_DELIVER_PORT

#: §9.1: "at most five nodes to be updated" for the single layer.
SL_NODE_THRESHOLD = 5

#: The re-trigger store's entry for a pending update the test made, and
#: for the update the request returned (the same object).
PENDING, RETURNED = "pending", "returned"


class Record(NamedTuple):
    """The Flow-DB state of the flow before the request."""

    flow_id: int
    old_path: list[str]
    size: float
    version: int                    # the last version allocated to the flow
    pending: Optional[tuple[int, list[str]]] = None     # (version, path)


class Pair(NamedTuple):
    """§3.2 and §7.5 on one (P_o, P_n): the gateways G in P_n order, the
    direction of each segment between consecutive gateways, and the
    nodes whose forwarding rule the update installs or changes."""

    gateways: tuple[str, ...]
    forward: tuple[bool, ...]
    changed: frozenset[str]


def labels(path: Sequence[str]) -> dict[str, int]:
    """§3.2: each node's hop count to the egress.  A path has at least
    two nodes and visits each once."""
    if len(path) < 2:
        raise ValueError("a path needs at least two nodes")
    if len(set(path)) < len(path):
        raise ValueError(f"path revisits a node: {path}")
    return {node: len(path) - 1 - i for i, node in enumerate(path)}


def old_labels(old: Sequence[str], new: Sequence[str]) -> dict[str, int]:
    """D_o, the labels of P_o.  The flow's ingress and egress are on
    both paths, so P_o and P_n must share them."""
    if (old[0], old[-1]) != (new[0], new[-1]):
        raise ValueError("old and new paths must share ingress and egress")
    return labels(old)


def analyse(old: Sequence[str], new: Sequence[str]) -> Pair:
    d_o = old_labels(old, new)
    gateways = tuple(node for node in new if node in d_o)
    # A segment is forward when its egress gateway is closer to the
    # destination on P_o than its ingress gateway.
    forward = tuple(d_o[a] > d_o[b] for a, b in zip(gateways, gateways[1:]))
    old_next = dict(zip(old, old[1:]))
    changed = frozenset(node for node, nxt in zip(new, new[1:]) if old_next.get(node) != nxt)
    return Pair(gateways, forward, changed)


def choose(pair: Pair) -> UpdateType:
    """§7.5 with §9.1's threshold: SL for only forward segments and at
    most five nodes to update, DL otherwise."""
    if all(pair.forward) and len(pair.changed) <= SL_NODE_THRESHOLD:
        return UpdateType.SINGLE
    return UpdateType.DUAL


def unchanged(record: Record) -> dict:
    """The Flow-DB side of a request that changes nothing."""
    version, path = record.pending or (None, None)
    return {
        "pending_path": path, "pending_version": version, "version": record.version,
        "store": {} if version is None else {(record.flow_id, version): PENDING},
        "retriggers": set() if version is None else {(record.flow_id, version)},
    }


def prepare(
    record: Record,
    new: list[str],
    update_type: Optional[UpdateType],
    stage_tag: Optional[int],
    ports: dict[tuple[str, str], int],
) -> dict:
    """What ``prepare_update(flow_id, new, update_type, stage_tag=...)``
    returns (``"prepared"``) and leaves in the Flow DB; ``ports`` is the
    network's wiring, ``(node, neighbour) -> port``.  A rejection is
    ``(exception type name, text)``."""
    old, flow_id = record.old_path, record.flow_id
    try:
        # Reading: P_n is checked before P_o, and every type checks both
        # before a version is spent, so no rejection spends one.
        d_n = labels(new)
        pair = analyse(old, new)
    except ValueError as exc:
        return {**unchanged(record), "prepared": ("ValueError", str(exc))}
    if update_type is None:
        update_type = choose(pair)
    # Reading: SL carries no gateway roles.
    gateways = pair.gateways if update_type is UpdateType.DUAL else ()
    version = record.version + 1
    ingress, egress = new[0], new[-1]
    uims = tuple(
        UIM(
            target=node,
            flow_id=flow_id,
            version=version,
            new_distance=d_n[node],
            # Towards the parent, the next hop on P_n; the egress delivers.
            egress_port=LOCAL_DELIVER_PORT if node == egress else ports[node, new[i + 1]],
            # Reading: the size rides whatever ``congestion_aware`` says.
            flow_size=record.size,
            update_type=update_type,
            # Towards the child, the previous hop on P_n (§8's UNM clone).
            child_port=None if node == ingress else ports[node, new[i - 1]],
            child_ports=(),
            is_flow_egress=node == egress,
            # §8: every gateway but the flow's ends closes a segment and
            # originates its second-layer UNM.
            is_segment_egress=node in gateways and node not in (ingress, egress),
            is_ingress=node == ingress,
            is_gateway=node in gateways,
            stage_tag=stage_tag,
            piggyback=(),
        )
        for i, node in enumerate(new)
    )
    prepared = {
        "flow_id": flow_id, "version": version, "update_type": update_type, "uims": uims,
        "old_path": tuple(old), "new_path": tuple(new),
    }
    # §11: the pending update is kept for re-triggering; the one it
    # supersedes goes with its re-trigger budget.
    return {
        "prepared": prepared, "pending_path": list(new), "pending_version": version,
        "version": version, "store": {(flow_id, version): RETURNED}, "retriggers": set(),
    }
