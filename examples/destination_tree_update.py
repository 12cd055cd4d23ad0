#!/usr/bin/env python3
"""Destination-based routing — updating a whole in-tree at once (§11).

In destination-based networks (plain IP forwarding), all traffic
towards one prefix shares per-switch rules: the routing state is an
in-tree rooted at the destination.  P4Update's distance labeling
applies unchanged — the UNM chain simply *branches* at every node.

This example shifts a fat-tree destination's in-tree from core0 to
core1 and prints the branching notification order.

Run:  python examples/destination_tree_update.py
"""

from repro.core.desttree import DestinationTreeManager, tree_id_for
from repro.harness.build import build_p4update_network
from repro.params import SimParams
from repro.topo.fattree import fattree_topology


def main() -> None:
    topo = fattree_topology(4)
    deployment = build_p4update_network(topo, params=SimParams(seed=1))
    rule_changes = []
    deployment.network.trace.subscribe(rule_changes.append, ["rule_change"])
    manager = DestinationTreeManager(deployment.controller)

    dst = "edge0_0"
    old_tree = {
        "agg0_0": dst,
        "core0": "agg0_0",
        "agg1_0": "core0", "agg2_0": "core0", "agg3_0": "core0",
        "edge1_0": "agg1_0", "edge2_0": "agg2_0", "edge3_0": "agg3_0",
    }
    manager.install_tree(dst, old_tree, size=1.0, deployment=deployment)
    print(f"destination: {dst}")
    print(f"old in-tree via core0, {len(old_tree)} switches, "
          f"leaves: edge1_0, edge2_0, edge3_0\n")

    new_tree = {
        "agg0_0": dst,
        "core1": "agg0_0",
        "agg1_0": "core1", "agg2_0": "core1", "agg3_0": "core1",
        "edge1_0": "agg1_0", "edge2_0": "agg2_0", "edge3_0": "agg3_0",
    }
    manager.update_tree(dst, new_tree)
    deployment.run()

    print(f"update complete: {manager.update_complete(dst)}")
    print(f"duration:        {manager.update_duration(dst):.1f} ms")
    print(f"consistent:      {deployment.checker.ok}\n")
    print("rule installs (root first, branches in parallel):")
    for event in rule_changes:
        if event.detail.get("flow") == tree_id_for(dst):
            print(f"  t={event.time:6.2f} ms  {event.node} -> "
                  f"{event.detail.get('next_hop')}")


if __name__ == "__main__":
    main()
