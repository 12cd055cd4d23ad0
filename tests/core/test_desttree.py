"""Tests for §11 destination-based routing updates (in-tree SL)."""

import pytest

from repro.consistency import LiveChecker
from repro.core.desttree import (
    DestinationTreeManager,
    TreeError,
    children_of,
    leaves_of,
    tree_id_for,
    validate_tree,
)
from repro.harness.build import build_p4update_network
from repro.params import DelayDistribution, SimParams
from repro.topo import fattree_topology, ring_topology
from repro.topo.graph import Topology


def fast_params(seed=0):
    return SimParams(
        seed=seed,
        pipeline_delay=DelayDistribution.constant(0.1),
        rule_install_delay=DelayDistribution.constant(1.0),
        controller_service=DelayDistribution.constant(0.2),
        controller_background_util=0.0,
        unm_generation_delay=DelayDistribution.constant(0.5),
    )


# -- tree utilities --------------------------------------------------------------

def test_validate_tree_distances():
    parents = {"a": "b", "b": "dst", "c": "dst"}
    distances = validate_tree("dst", parents)
    assert distances == {"dst": 0, "b": 1, "c": 1, "a": 2}


def test_validate_tree_rejects_cycle():
    with pytest.raises(TreeError):
        validate_tree("dst", {"a": "b", "b": "a"})


def test_validate_tree_rejects_parent_for_destination():
    with pytest.raises(TreeError):
        validate_tree("dst", {"dst": "a", "a": "dst"})


def test_validate_tree_rejects_unreachable():
    with pytest.raises(TreeError):
        validate_tree("dst", {"a": "ghost"})


def test_children_and_leaves():
    parents = {"a": "b", "b": "dst", "c": "dst"}
    assert children_of(parents) == {"b": ["a"], "dst": ["b", "c"]}
    assert leaves_of(parents) == ["a", "c"]


def test_tree_id_stable():
    assert tree_id_for("dst") == tree_id_for("dst")
    assert tree_id_for("dst") != tree_id_for("other")


# -- end-to-end tree updates --------------------------------------------------------

def star_topology() -> Topology:
    """dst at the hub of two 2-hop spokes plus cross links."""
    topo = Topology("star")
    for node in ("dst", "m1", "m2", "l1", "l2"):
        topo.add_node(node)
    topo.add_edge("dst", "m1", latency_ms=1.0)
    topo.add_edge("dst", "m2", latency_ms=1.0)
    topo.add_edge("m1", "l1", latency_ms=1.0)
    topo.add_edge("m2", "l2", latency_ms=1.0)
    topo.add_edge("m1", "l2", latency_ms=1.0)
    topo.add_edge("m2", "l1", latency_ms=1.0)
    topo.set_controller("dst")
    return topo


@pytest.mark.usefixtures("shadow_checker")     # register_tree: one walk per leaf
def test_tree_update_completes_and_rebinds_all_leaves():
    topo = star_topology()
    dep = build_p4update_network(topo, params=fast_params())
    checker = LiveChecker(dep.forwarding_state, dep.network.trace)
    manager = DestinationTreeManager(dep.controller)
    old_tree = {"m1": "dst", "m2": "dst", "l1": "m1", "l2": "m2"}
    manager.install_tree("dst", old_tree, size=1.0, deployment=dep)

    # Swap the leaves' attachment: l1 via m2, l2 via m1.
    new_tree = {"m1": "dst", "m2": "dst", "l1": "m2", "l2": "m1"}
    manager.update_tree("dst", new_tree)
    dep.run()
    assert manager.update_complete("dst")
    assert checker.ok, checker.violations
    tree_id = tree_id_for("dst")
    for leaf in ("l1", "l2"):
        walk, outcome = dep.forwarding_state.walk(tree_id, ingress=leaf)
        assert outcome == "delivered"
    assert dep.forwarding_state.next_hop(tree_id, "l1") == "m2"
    assert dep.forwarding_state.next_hop(tree_id, "l2") == "m1"


def test_tree_update_branches_from_root():
    """The UNM chain must branch: both subtrees update in parallel
    (neither waits for the other's installs)."""
    topo = star_topology()
    dep = build_p4update_network(topo, params=fast_params())
    manager = DestinationTreeManager(dep.controller)
    old_tree = {"m1": "dst", "m2": "dst", "l1": "m1", "l2": "m2"}
    manager.install_tree("dst", old_tree, size=1.0, deployment=dep)
    new_tree = {"m1": "dst", "m2": "dst", "l1": "m2", "l2": "m1"}
    manager.update_tree("dst", new_tree)
    dep.run()
    changes = {
        e.node: e.time
        for e in dep.network.trace
        if e.kind == "rule_change" and e.detail.get("flow") == tree_id_for("dst")
    }
    # Both branch heads update before either leaf.
    assert changes["m1"] < changes["l2"]
    assert changes["m2"] < changes["l1"]


@pytest.mark.usefixtures("shadow_checker")     # register_tree: one walk per leaf
def test_tree_update_on_ring_reverses_orientation():
    """Flip the in-tree around the ring (every node's parent reverses)
    — a maximally entangled destination update."""
    topo = ring_topology(6, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params())
    checker = LiveChecker(dep.forwarding_state, dep.network.trace)
    manager = DestinationTreeManager(dep.controller)
    # Old: everything clockwise towards n0.
    old_tree = {f"n{i}": f"n{i-1}" for i in range(1, 6)}
    manager.install_tree("n0", old_tree, size=1.0, deployment=dep)
    # New: everything counter-clockwise towards n0.
    new_tree = {f"n{i}": f"n{(i+1) % 6}" for i in range(1, 6)}
    manager.update_tree("n0", new_tree)
    dep.run(until=20_000.0)
    assert manager.update_complete("n0")
    assert checker.ok, checker.violations
    tree_id = tree_id_for("n0")
    for leaf in ("n1",):
        walk, outcome = dep.forwarding_state.walk(tree_id, ingress=leaf)
        assert outcome == "delivered"
        assert walk == ["n1", "n2", "n3", "n4", "n5", "n0"]


def test_tree_update_duration_recorded():
    topo = star_topology()
    dep = build_p4update_network(topo, params=fast_params())
    manager = DestinationTreeManager(dep.controller)
    old_tree = {"m1": "dst", "m2": "dst", "l1": "m1", "l2": "m2"}
    manager.install_tree("dst", old_tree, size=1.0, deployment=dep)
    manager.update_tree("dst", {"m1": "dst", "m2": "dst", "l1": "m2", "l2": "m1"})
    dep.run()
    duration = manager.update_duration("dst")
    assert duration is not None and duration > 0


@pytest.mark.usefixtures("shadow_checker")     # register_tree: one walk per leaf
def test_tree_on_fattree_core_shift():
    """Shift a fat-tree destination's in-tree to different cores."""
    topo = fattree_topology(4)
    dep = build_p4update_network(topo, params=fast_params())
    checker = LiveChecker(dep.forwarding_state, dep.network.trace)
    manager = DestinationTreeManager(dep.controller)
    dst = "edge0_0"
    old_tree = {
        "agg0_0": dst,
        "core0": "agg0_0",
        "agg1_0": "core0",
        "edge1_0": "agg1_0",
    }
    manager.install_tree(dst, old_tree, size=1.0, deployment=dep)
    new_tree = {
        "agg0_0": dst,
        "core1": "agg0_0",
        "agg1_0": "core1",
        "edge1_0": "agg1_0",
    }
    manager.update_tree(dst, new_tree)
    dep.run()
    assert manager.update_complete(dst)
    assert checker.ok, checker.violations
    tree_id = tree_id_for(dst)
    walk, outcome = dep.forwarding_state.walk(tree_id, ingress="edge1_0")
    assert outcome == "delivered"
    assert "core1" in walk
