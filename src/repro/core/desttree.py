"""Destination-based routing updates (paper §11).

In destination-based routing all traffic towards one destination
shares per-node rules: the routing state is an **in-tree** rooted at
the destination.  The paper notes P4Update "can also be adapted to
different routing paradigms ... basic distance labeling can be used".

The adaptation mirrors SL-P4Update on the tree:

* the controller labels every tree node with its hop distance to the
  destination and pushes one UIM per node, listing the ports of the
  node's *children* in the new tree;
* the destination (root) applies directly and sends an UNM to each
  child; every node verifies the UNM against its UIM (Alg. 1 applies
  unchanged: the parent's distance must be exactly one smaller), then
  installs and notifies its own children — the chain *branches*;
* leaves report completion via UFMs; the update is complete when all
  leaves reported.

Blackhole/loop freedom follows from the same argument as Theorem 1:
a node only points at its new parent after the parent's entire path to
the root is installed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.labeling import VersionAllocator
from repro.core.messages import UFM, UIM, UpdateType
from repro.core.registers import LOCAL_DELIVER_PORT
from repro.traffic.flows import flow_hash

if TYPE_CHECKING:  # import cycle: controller owns the tree manager
    from repro.core.controller import P4UpdateController
    from repro.harness.build import Deployment


class TreeError(ValueError):
    """Raised for malformed destination trees."""


def tree_id_for(destination: str) -> int:
    """Stable identifier for a destination's shared routing state."""
    return flow_hash("*tree*", destination)


def validate_tree(destination: str, parent_of: dict[str, str]) -> dict[str, int]:
    """Check that ``parent_of`` is an in-tree rooted at ``destination``
    and return each node's hop distance to the root.

    Raises :class:`TreeError` on cycles, unreachable nodes, or a parent
    that is not itself part of the tree.
    """
    if destination in parent_of:
        raise TreeError(f"destination {destination!r} cannot have a parent")
    distances: dict[str, int] = {destination: 0}

    def resolve(node: str, trail: tuple) -> int:
        if node in distances:
            return distances[node]
        if node in trail:
            raise TreeError(f"cycle through {node!r}")
        parent = parent_of.get(node)
        if parent is None:
            raise TreeError(f"{node!r} does not reach {destination!r}")
        distance = resolve(parent, trail + (node,)) + 1
        distances[node] = distance
        return distance

    for node in parent_of:
        resolve(node, ())
    return distances


def children_of(parent_of: dict[str, str]) -> dict[str, list[str]]:
    """Invert a parent map (children sorted for determinism)."""
    children: dict[str, list[str]] = {}
    for child, parent in parent_of.items():
        children.setdefault(parent, []).append(child)
    for child_list in children.values():
        child_list.sort()
    return children


def leaves_of(parent_of: dict[str, str]) -> list[str]:
    """Nodes with no children (the tree's traffic sources)."""
    parents = set(parent_of.values())
    return sorted(node for node in parent_of if node not in parents)


@dataclass
class TreeRecord:
    """Controller bookkeeping for one destination tree."""

    destination: str
    tree_id: int
    parent_of: dict[str, str]
    size: float
    version: int
    pending_parent_of: Optional[dict[str, str]] = None
    pending_version: Optional[int] = None
    pending_leaves: set = field(default_factory=set)
    update_sent_at: Optional[float] = None
    update_done_at: Optional[float] = None


class DestinationTreeManager:
    """Controller-side driver for §11 destination-tree updates.

    Plugs into a :class:`~repro.core.controller.P4UpdateController`:

        manager = DestinationTreeManager(controller)
        manager.install_tree("dst", parent_map, size=1.0, deployment=dep)
        manager.update_tree("dst", new_parent_map)
    """

    def __init__(self, controller: "P4UpdateController") -> None:
        self.controller = controller
        self.trees: dict[str, TreeRecord] = {}
        self.versions = VersionAllocator()
        controller.tree_manager = self

    # -- bootstrap -----------------------------------------------------------

    def install_tree(self, destination: str, parent_of: dict[str, str],
                     size: float, deployment: "Deployment") -> TreeRecord:
        """Deploy the initial tree directly (version 1)."""
        distances = validate_tree(destination, parent_of)
        tree_id = tree_id_for(destination)
        record = TreeRecord(
            destination=destination,
            tree_id=tree_id,
            parent_of=dict(parent_of),
            size=size,
            version=self.versions.next_version(tree_id),
        )
        self.trees[destination] = record
        deployment.forwarding_state.register_tree(
            tree_id, leaves_of(parent_of), destination, size
        )
        network = deployment.network
        for node, parent in parent_of.items():
            port = network.port_towards(node, parent)
            deployment.switches[node].install_initial_flow(
                tree_id, distances[node], port, size
            )
        deployment.switches[destination].install_initial_flow(
            tree_id, 0, LOCAL_DELIVER_PORT, size
        )
        return record

    # -- updates ------------------------------------------------------------------

    def update_tree(self, destination: str, new_parent_of: dict[str, str]) -> int:
        """Prepare and push a new in-tree; returns the version number."""
        record = self.trees[destination]
        distances = validate_tree(destination, new_parent_of)
        children = children_of(new_parent_of)
        leaves = leaves_of(new_parent_of)
        version = self.versions.next_version(record.tree_id)
        controller = self.controller
        network = controller.network

        uims = []
        all_nodes = [destination] + sorted(new_parent_of)
        for node in all_nodes:
            is_root = node == destination
            parent = new_parent_of.get(node)
            child_ports = tuple(
                network.port_towards(node, child)
                for child in children.get(node, [])
            )
            uims.append(
                UIM(
                    node, record.tree_id, version, distances[node],
                    LOCAL_DELIVER_PORT if is_root
                    else network.port_towards(node, parent),
                    record.size, UpdateType.SINGLE,
                    None,                             # child_port
                    child_ports,
                    is_root,                          # is_flow_egress
                    False,                            # is_segment_egress
                    node in leaves,                   # is_ingress
                )
            )
        record.pending_parent_of = dict(new_parent_of)
        record.pending_version = version
        record.pending_leaves = set(leaves)
        record.update_sent_at = controller.now
        for uim in uims:
            controller.send_control(uim)
        return version

    # -- feedback (called by the controller on tree UFMs) -----------------------------

    def handle_ufm(self, ufm: UFM) -> bool:
        """Returns True when the UFM belonged to a tree update."""
        for record in self.trees.values():
            if record.tree_id != ufm.flow_id:
                continue
            if ufm.status != "success" or ufm.version != record.pending_version:
                return True
            record.pending_leaves.discard(ufm.reporter)
            if not record.pending_leaves:
                record.version = ufm.version
                record.parent_of = dict(record.pending_parent_of or {})
                record.pending_parent_of = None
                record.pending_version = None
                record.update_done_at = self.controller.now
            return True
        return False

    def update_complete(self, destination: str) -> bool:
        record = self.trees[destination]
        return record.pending_version is None

    def update_duration(self, destination: str) -> Optional[float]:
        record = self.trees[destination]
        if record.update_sent_at is None or record.update_done_at is None:
            return None
        return record.update_done_at - record.update_sent_at
