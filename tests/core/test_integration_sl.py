"""End-to-end SL-P4Update runs on small topologies.

These tests run the whole stack: controller UIMs over control
channels, UNM chain through the simulated P4 pipelines, timed rule
installs, UFM feedback — with the live consistency checker asserting
blackhole/loop/congestion freedom at every rule change.
"""


from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.params import DelayDistribution, SimParams
from repro.topo.synthetic import (
    FIG1_NEW_PATH,
    FIG1_OLD_PATH,
    fig1_topology,
    line_topology,
    ring_topology,
)
from repro.traffic.flows import Flow


def fast_params(seed=0):
    return SimParams(
        seed=seed,
        pipeline_delay=DelayDistribution.constant(0.1),
        rule_install_delay=DelayDistribution.constant(1.0),
        controller_service=DelayDistribution.constant(0.2),
    )


def test_sl_update_on_ring_completes_consistently():
    topo = ring_topology(6, latency_ms=2.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params())
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    prepared = dep.controller.update_flow(
        flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE
    )
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    assert dep.checker.ok, dep.checker.violations
    # Final forwarding follows the new path.
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered"
    assert walk == ["n0", "n5", "n4", "n3"]
    assert prepared.version == 2


def test_sl_update_time_reflects_serial_chain():
    """SL serialises installs from egress to ingress: with constant
    1 ms installs and 2 ms links, a 4-node path takes at least
    4 installs + 3 UNM hops."""
    topo = ring_topology(6, latency_ms=2.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params())
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE)
    dep.run()
    duration = dep.controller.update_duration(flow.flow_id)
    assert duration is not None
    assert duration >= 4 * 1.0 + 3 * 2.0


def test_fig1_update_via_sl():
    topo = fig1_topology()
    topo.set_controller("v0")
    dep = build_p4update_network(topo, params=fast_params())
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.SINGLE)
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    assert dep.checker.ok, dep.checker.violations
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == list(FIG1_NEW_PATH)


def test_two_hop_flow_update():
    """Smallest possible update: ingress directly re-pointed."""
    topo = ring_topology(3, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params())
    flow = Flow.between("n0", "n2", size=1.0, old_path=["n0", "n1", "n2"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n2"], UpdateType.SINGLE)
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == ["n0", "n2"]


def test_version_increments_across_sequential_updates():
    topo = ring_topology(6, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params())
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    first = dep.controller.update_flow(
        flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE
    )
    dep.run()
    second = dep.controller.update_flow(
        flow.flow_id, ["n0", "n1", "n2", "n3"], UpdateType.SINGLE
    )
    dep.run()
    assert (first.version, second.version) == (2, 3)
    assert dep.controller.update_complete(flow.flow_id)
    assert dep.checker.ok, dep.checker.violations
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == ["n0", "n1", "n2", "n3"]


def test_unchanged_path_update_still_completes():
    """Re-pushing the same path bumps versions along the chain."""
    topo = line_topology(4, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params())
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n1", "n2", "n3"], UpdateType.SINGLE)
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)


def test_controller_receives_no_alarms_on_clean_update():
    topo = ring_topology(5, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params())
    flow = Flow.between("n0", "n2", size=1.0, old_path=["n0", "n1", "n2"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n4", "n3", "n2"], UpdateType.SINGLE)
    dep.run()
    assert dep.controller.alarms == []
