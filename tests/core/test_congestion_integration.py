"""Integration tests for congestion-freedom (§7.4, App. A.2) at the
full-protocol level."""


from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.params import DelayDistribution, SimParams
from repro.topo.graph import Topology
from repro.traffic.flows import Flow


def fast_params(seed=0):
    return SimParams(
        seed=seed,
        pipeline_delay=DelayDistribution.constant(0.1),
        rule_install_delay=DelayDistribution.constant(1.0),
        controller_service=DelayDistribution.constant(0.2),
        controller_background_util=0.0,
        unm_generation_delay=DelayDistribution.constant(0.5),
    )


def diamond(capacity_b=10.0) -> Topology:
    """s -> {a, b, c} -> t, with s-b capacity-constrained."""
    topo = Topology("diamond")
    for node in ("s", "a", "b", "c", "t"):
        topo.add_node(node)
    for mid in ("a", "b", "c"):
        cap = capacity_b if mid == "b" else 100.0
        topo.add_edge("s", mid, latency_ms=1.0, capacity=cap)
        topo.add_edge(mid, "t", latency_ms=1.0, capacity=100.0)
    topo.set_controller("s")
    return topo


def two_flows(size1=6.0, size2=6.0):
    f1 = Flow.between("s", "t", size=size1, old_path=["s", "a", "t"])
    f2 = Flow(flow_id=f1.flow_id + 1, src="s", dst="t", size=size2,
              old_path=["s", "b", "t"])
    return f1, f2


def test_dependent_moves_resolve_in_order():
    """f1 wants onto s-b which only frees once f2 moved to s-c: the
    data-plane scheduler must defer f1, then admit it."""
    topo = diamond(capacity_b=10.0)
    dep = build_p4update_network(topo, params=fast_params())
    f1, f2 = two_flows()
    dep.install_flow(f1)
    dep.install_flow(f2)
    dep.controller.update_flow(f1.flow_id, ["s", "b", "t"], UpdateType.SINGLE)
    dep.controller.update_flow(f2.flow_id, ["s", "c", "t"], UpdateType.SINGLE)
    dep.run()
    assert dep.controller.all_updates_complete()
    assert dep.checker.ok, dep.checker.violations
    # f1's move must have been deferred at least once.
    assert dep.switches["s"].program.stats["capacity_deferrals"] >= 1
    # Order: f1's flip at s must come after f2's.
    flips = {
        e.detail["flow"]: e.time
        for e in dep.network.trace
        if e.kind == "rule_change" and e.node == "s"
    }
    assert flips[f1.flow_id] > flips[f2.flow_id]


def test_infeasible_move_never_applied():
    """With no capacity ever freeing, the flow must keep its old path
    (consistency over progress, §5-ii)."""
    topo = diamond(capacity_b=10.0)
    dep = build_p4update_network(topo, params=fast_params())
    f1, f2 = two_flows(size1=6.0, size2=6.0)
    dep.install_flow(f1)
    dep.install_flow(f2)
    # Only f1 moves; f2 stays on s-b: 6+6 > 10 is never feasible.
    dep.controller.update_flow(f1.flow_id, ["s", "b", "t"], UpdateType.SINGLE)
    dep.run(until=15_000.0)
    assert dep.checker.ok, dep.checker.violations
    assert not dep.controller.update_complete(f1.flow_id)
    walk, outcome = dep.forwarding_state.walk(f1.flow_id)
    assert outcome == "delivered" and walk == ["s", "a", "t"]


def test_same_link_move_is_free():
    """A version bump that keeps the egress link never needs capacity."""
    topo = diamond(capacity_b=6.0)
    dep = build_p4update_network(topo, params=fast_params())
    f2 = Flow.between("s", "t", size=6.0, old_path=["s", "b", "t"])
    dep.install_flow(f2)
    # Re-push the same path: link s-b is exactly full with this flow,
    # but moving onto one's own link must not self-block (§A.2).
    dep.controller.update_flow(f2.flow_id, ["s", "b", "t"], UpdateType.SINGLE)
    dep.run()
    assert dep.controller.update_complete(f2.flow_id)


def test_congestion_unaware_mode_skips_checks():
    topo = diamond(capacity_b=1.0)      # far too small
    dep = build_p4update_network(topo, params=fast_params())
    dep.set_congestion_aware(False)
    f1, _ = two_flows(size1=6.0)
    dep.install_flow(f1)
    dep.controller.update_flow(f1.flow_id, ["s", "b", "t"], UpdateType.SINGLE)
    dep.run()
    assert dep.controller.update_complete(f1.flow_id), (
        "without congestion awareness the move must go through"
    )


def test_flow_size_change_rejected_with_alarm():
    """App. A.2: 'the flow size stays identical ... else discard'."""
    topo = diamond()
    dep = build_p4update_network(topo, params=fast_params())
    f1, _ = two_flows()
    dep.install_flow(f1)
    prepared = dep.controller.prepare_update(
        f1.flow_id, ["s", "b", "t"], UpdateType.SINGLE
    )
    # Tamper with the advertised size of one UIM.
    tampered = [uim._replace(flow_size=uim.flow_size * 3) for uim in prepared.uims]
    for uim in tampered:
        dep.controller.send_control(uim)
    dep.run(until=5_000.0)
    assert any("size" in a.reason for a in dep.controller.alarms)
    walk, outcome = dep.forwarding_state.walk(f1.flow_id)
    assert outcome == "delivered" and walk == ["s", "a", "t"], (
        "the tampered update must not have been applied"
    )


def test_high_priority_flow_moves_first_end_to_end():
    """§7.4 priorities at protocol level: a blocked flow raises the
    priority of the flow it waits for; once capacity frees, the chain
    completes."""
    topo = Topology("chain3")
    for node in ("s", "a", "b", "c", "t"):
        topo.add_node(node)
    topo.add_edge("s", "a", latency_ms=1.0, capacity=100.0)
    topo.add_edge("s", "b", latency_ms=1.0, capacity=10.0)
    topo.add_edge("s", "c", latency_ms=1.0, capacity=10.0)
    for mid in ("a", "b", "c"):
        topo.add_edge(mid, "t", latency_ms=1.0, capacity=100.0)
    topo.set_controller("s")
    dep = build_p4update_network(topo, params=fast_params())
    f1 = Flow.between("s", "t", size=7.0, old_path=["s", "a", "t"])
    f2 = Flow(flow_id=f1.flow_id + 1, src="s", dst="t", size=7.0,
              old_path=["s", "b", "t"])
    f3 = Flow(flow_id=f1.flow_id + 2, src="s", dst="t", size=7.0,
              old_path=["s", "c", "t"])
    for flow in (f1, f2, f3):
        dep.install_flow(flow)
    # f1 -> b (blocked by f2), f2 -> c (blocked by f3), f3 -> a (free).
    dep.controller.update_flow(f1.flow_id, ["s", "b", "t"], UpdateType.SINGLE)
    dep.controller.update_flow(f2.flow_id, ["s", "c", "t"], UpdateType.SINGLE)
    dep.controller.update_flow(f3.flow_id, ["s", "a", "t"], UpdateType.SINGLE)
    dep.run()
    assert dep.controller.all_updates_complete()
    assert dep.checker.ok, dep.checker.violations
