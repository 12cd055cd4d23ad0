"""Tests for the ez-Segway baseline."""

import pytest

from repro.baselines.ezsegway import (
    congestion_dependency_graph,
    prepare_ez_update,
)
from repro.harness.baselines_build import build_ezsegway_network
from repro.params import DelayDistribution, SimParams
from repro.sim.trace import KIND_UPDATE_DONE
from repro.topo.graph import Topology
from repro.topo.synthetic import (
    FIG1_NEW_PATH,
    FIG1_OLD_PATH,
    fig1_topology,
    ring_topology,
)
from repro.traffic.flows import Flow


def fast_params(seed=0, install_ms=1.0):
    return SimParams(
        seed=seed,
        pipeline_delay=DelayDistribution.constant(0.1),
        rule_install_delay=DelayDistribution.constant(install_ms),
        controller_service=DelayDistribution.constant(0.2),
    )


# -- preparation -------------------------------------------------------------

def test_prepare_classifies_fig1_segments():
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    prepared = prepare_ez_update(
        flow, list(FIG1_OLD_PATH), list(FIG1_NEW_PATH), update_id=1
    )
    kinds = [s.forward for s in prepared.segments]
    assert kinds == [True, False, True]
    # Roles exist for every node of the new path.
    assert {r.target for r in prepared.roles} == set(FIG1_NEW_PATH)


def test_prepare_in_loop_segment_depends_on_flip():
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    prepared = prepare_ez_update(
        flow, list(FIG1_OLD_PATH), list(FIG1_NEW_PATH), update_id=1
    )
    # v4 is the egress gateway of the in_loop segment {v2, v3, v4}: its
    # role for that segment must carry the dependency.
    v4_roles = [r for r in prepared.roles if r.target == "v4"]
    in_loop_driver = [r for r in v4_roles if r.is_segment_egress and r.in_loop]
    assert in_loop_driver and all(r.depends_on_flip for r in in_loop_driver)


def test_congestion_dependency_graph_ranks_blockers_first():
    # Flow A wants link (x, y) which is full because of flow B; B moves
    # away.  B's move must get a smaller (earlier) rank than A's.
    flow_a = Flow(
        flow_id=1, src="a", dst="y", size=5.0,
        old_path=["a", "x", "z", "y"], new_path=["a", "x", "y"],
    )
    flow_b = Flow(
        flow_id=2, src="x", dst="w", size=6.0,
        old_path=["x", "y", "w"], new_path=["x", "w"],
    )
    capacities = {
        frozenset(("x", "y")): 8.0,
        frozenset(("x", "z")): 100.0,
        frozenset(("z", "y")): 100.0,
        frozenset(("a", "x")): 100.0,
        frozenset(("x", "w")): 100.0,
        frozenset(("y", "w")): 100.0,
    }
    ranks = congestion_dependency_graph([flow_a, flow_b], capacities)
    assert ranks[(2, ("x", "w"))] < ranks[(1, ("x", "y"))]


def test_congestion_dependency_graph_handles_cycles():
    # A <-> B swap: classic deadlock; condensation still yields ranks.
    flow_a = Flow(
        flow_id=1, src="a", dst="c", size=6.0,
        old_path=["a", "b", "c"], new_path=["a", "d", "c"],
    )
    flow_b = Flow(
        flow_id=2, src="a", dst="c", size=6.0,
        old_path=["a", "d", "c"], new_path=["a", "b", "c"],
    )
    capacities = {
        frozenset(("a", "b")): 10.0,
        frozenset(("b", "c")): 10.0,
        frozenset(("a", "d")): 10.0,
        frozenset(("d", "c")): 10.0,
    }
    ranks = congestion_dependency_graph([flow_a, flow_b], capacities)
    assert len(ranks) == 4  # all moves ranked despite the cycle


# -- runtime --------------------------------------------------------------------

def ez_fig1():
    topo = fig1_topology()
    topo.set_controller("v0")
    dep = build_ezsegway_network(topo, params=fast_params())
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    dep.install_flow(flow)
    return dep, flow


def test_ez_fig1_update_completes():
    dep, flow = ez_fig1()
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH))
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == list(FIG1_NEW_PATH)


def test_ez_fig1_in_loop_waits_for_not_in_loop():
    dep, flow = ez_fig1()
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH))
    dep.run()
    changes = {
        e.node: e.time
        for e in dep.network.trace
        if e.kind == "rule_change" and e.detail.get("flow") == flow.flow_id
    }
    # v2 (in_loop ingress gateway) must flip after v4 flipped.
    assert changes["v2"] > changes["v4"]
    # And v3 (inside the in_loop segment) must NOT have pre-installed:
    # it flips after v4 as well (no early rule install, unlike DL).
    assert changes["v3"] > changes["v4"]


def test_ez_serializes_consecutive_updates():
    """§4.2: ez-Segway waits for U2 before starting U3."""
    topo = ring_topology(6, latency_ms=2.0)
    topo.set_controller("n0")
    dep = build_ezsegway_network(topo, params=fast_params(install_ms=5.0))
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n5", "n4", "n3"])
    u3 = dep.controller.update_flow(flow.flow_id, ["n0", "n1", "n2", "n3"])
    assert u3 is None, "second update must be queued, not pushed"
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == ["n0", "n1", "n2", "n3"]
    # Both updates recorded, in order.
    done = [
        (event.detail["flow"], event.detail["update"])
        for event in dep.network.trace
        if event.kind == KIND_UPDATE_DONE
    ]
    assert done == [(flow.flow_id, 1), (flow.flow_id, 2)]


def test_ez_simple_detour_on_ring():
    topo = ring_topology(6, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_ezsegway_network(topo, params=fast_params())
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n5", "n4", "n3"])
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == ["n0", "n5", "n4", "n3"]


# -- congestion deferrals ---------------------------------------------------------
#
# s -- t is the one link under test (capacity 10); s -- u -- t is the
# roomy old path of every moving flow.  Each moving flow (size 1) wants
# to move its s hop onto s -- t, so its role defers at s.

MOVERS = (1, 2, 3)


def full_link_network(blocked: bool, ranks: bool = False):
    """A deployment in which every mover's role at ``s`` defers.

    ``blocked``: a flow that never moves fills s -> t, so the capacity
    check fails.  ``ranks``: s -> t expects a rank-0 move that never comes
    before the movers' rank 5, so the static order holds them back.
    """
    topo = Topology("full-link")
    topo.add_edge("s", "t", latency_ms=1.0, capacity=10.0)
    topo.add_edge("s", "u", latency_ms=1.0, capacity=100.0)
    topo.add_edge("u", "t", latency_ms=1.0, capacity=100.0)
    topo.set_controller("u")
    params = fast_params()
    params.baseline_install_delay = DelayDistribution.constant(1.0)
    dep = build_ezsegway_network(topo, params=params)
    dep.set_congestion_aware(True)
    if blocked:
        dep.install_flow(Flow(flow_id=9, src="s", dst="t", size=10.0, old_path=["s", "t"]))
    for flow_id in MOVERS:
        dep.install_flow(
            Flow(flow_id=flow_id, src="s", dst="t", size=1.0, old_path=["s", "u", "t"])
        )
    move_ranks = None
    if ranks:
        dep.switches["s"].expect_ranks("t", [0, 5, 5, 5])
        move_ranks = {(flow_id, ("s", "t")): 5 for flow_id in MOVERS}
    for flow_id in MOVERS:
        dep.controller.update_flow(flow_id, ["s", "t"], move_ranks=move_ranks)
    return dep


def run_until_all_deferred(dep) -> float:
    """Step until every mover waits at ``s``; return the first
    deferral's time."""
    switch, engine = dep.switches["s"], dep.network.engine
    first = None
    while len(switch._deferred) < len(MOVERS):
        assert engine.step(), "engine drained before every mover deferred"
        if first is None and switch._deferred:
            first = engine.now
    return first


def pending_polls(dep) -> int:
    switch = dep.switches["s"]
    return sum(
        1 for _, _, event in dep.network.engine._queue
        if not event.cancelled and event.callback == switch._retry_deferred
    )


def mover_rules(dep) -> list:
    return [dep.switches["s"].rules[flow_id] for flow_id in MOVERS]


def test_one_pending_poll_per_switch_and_retries_count_polls():
    dep = full_link_network(blocked=True)
    first = run_until_all_deferred(dep)
    switch = dep.switches["s"]
    assert pending_polls(dep) == 1
    # Poll k evaluates every entry with retries == k; an entry that
    # defers again stores k + 1 for the next poll.
    assert [retries for _, retries in switch._deferred] == [1] * len(MOVERS)
    for k in range(1, 6):
        dep.run(until=first + k * dep.params.resubmit_interval_ms + 0.5)
        assert pending_polls(dep) == 1
        assert [retries for _, retries in switch._deferred] == [k + 1] * len(MOVERS)


def test_static_order_relaxes_on_poll_200_and_not_earlier():
    dep = full_link_network(blocked=False, ranks=True)
    first = run_until_all_deferred(dep)
    switch = dep.switches["s"]
    patience = switch.static_order_patience
    assert patience == 200
    interval = dep.params.resubmit_interval_ms
    relaxed_at = first + patience * interval
    # Poll 199 still holds every mover back on the static order.
    dep.run(until=relaxed_at - interval / 2)
    assert [retries for _, retries in switch._deferred] == [patience] * len(MOVERS)
    assert mover_rules(dep) == ["u"] * len(MOVERS)
    # Poll 200 admits them all (capacity is free): each flips one
    # install delay later.
    dep.run()
    assert not switch._deferred and pending_polls(dep) == 0
    assert mover_rules(dep) == ["t"] * len(MOVERS)
    flips = [
        e.time for e in dep.network.trace
        if e.kind == "rule_change" and e.node == "s" and e.detail.get("flow") in MOVERS
    ]
    assert flips == [pytest.approx(relaxed_at + 1.0)] * len(MOVERS)
    assert all(dep.controller.update_complete(flow_id) for flow_id in MOVERS)


def test_role_over_capacity_is_never_applied():
    dep = full_link_network(blocked=True, ranks=True)
    first = run_until_all_deferred(dep)
    switch = dep.switches["s"]
    # One poll per waiting entry would multiply every millisecond.
    assert pending_polls(dep) == 1
    polls = 3 * switch.static_order_patience
    dep.run(until=first + polls * dep.params.resubmit_interval_ms + 0.5)
    # The static order was relaxed long ago; the capacity check never is.
    assert [retries for _, retries in switch._deferred] == [polls + 1] * len(MOVERS)
    assert pending_polls(dep) == 1
    assert mover_rules(dep) == ["u"] * len(MOVERS)
    assert switch.link_reserved["t"] == 10.0
    assert not any(
        e.kind == "rule_change" and e.node == "s" and e.detail.get("flow") in MOVERS
        for e in dep.network.trace
    )
