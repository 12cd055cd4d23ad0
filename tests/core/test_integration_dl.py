"""End-to-end DL-P4Update runs — the Fig. 1 scenario and variants."""


from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.params import DelayDistribution, SimParams
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


def fig1_deployment(install_ms=1.0, seed=0):
    topo = fig1_topology()
    topo.set_controller("v0")
    dep = build_p4update_network(topo, params=fast_params(seed, install_ms))
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    dep.install_flow(flow)
    return dep, flow


def test_fig1_dl_update_completes_consistently():
    dep, flow = fig1_deployment()
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    assert dep.checker.ok, dep.checker.violations
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == list(FIG1_NEW_PATH)
    assert dep.controller.alarms == []


def test_fig1_dl_gateways_inherit_segment_id_zero():
    """§3.2: at convergence all gateways joined segment id 0."""
    dep, flow = fig1_deployment()
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run()
    for gateway in ("v0", "v2", "v4"):
        state = dep.switches[gateway].program.state_of(flow.flow_id)
        assert state.old_distance == 0, f"{gateway} kept segment id {state.old_distance}"
        assert state.update_type is UpdateType.DUAL


def test_fig1_dl_backward_gateway_updates_after_forward_segment():
    """v2 (backward segment ingress) must flip only after v4 flipped."""
    dep, flow = fig1_deployment()
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run()
    changes = {
        e.node: e.time
        for e in dep.network.trace
        if e.kind == "rule_change" and e.detail.get("flow") == flow.flow_id
    }
    assert changes["v2"] > changes["v4"], "loop-inducing order"
    assert changes["v0"] > changes["v2"] or "v0" in changes


def test_fig1_dl_parallelism_beats_sl_with_slow_installs():
    """With installs dominating, DL's segment parallelism must finish
    faster than SL's full serial chain."""
    durations = {}
    for update_type in (UpdateType.SINGLE, UpdateType.DUAL):
        dep, flow = fig1_deployment(install_ms=50.0)
        dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), update_type)
        dep.run()
        assert dep.controller.update_complete(flow.flow_id)
        durations[update_type] = dep.controller.update_duration(flow.flow_id)
    assert durations[UpdateType.DUAL] < durations[UpdateType.SINGLE]


def test_fig1_dl_interior_nodes_update_early():
    """Interior nodes of the backward segment (v3) pre-install: v3's
    rule change must not wait for v4's flip."""
    dep, flow = fig1_deployment(install_ms=20.0)
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run()
    changes = {
        e.node: e.time
        for e in dep.network.trace
        if e.kind == "rule_change" and e.detail.get("flow") == flow.flow_id
    }
    assert changes["v3"] < changes["v4"], "backward interior should pre-install"


def test_dl_after_dl_raises_alarm_and_keeps_state():
    """§11: consecutive dual-layer updates are rejected by gateways."""
    dep, flow = fig1_deployment()
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run()
    # Second DL back to the old path: gateways reject.
    dep.controller.update_flow(flow.flow_id, list(FIG1_OLD_PATH), UpdateType.DUAL)
    dep.run(until=dep.network.engine.now + 20_000.0)
    assert dep.checker.ok, dep.checker.violations
    # The network must never have become inconsistent; the flow is
    # still deliverable (on either path, depending on how far the
    # rejected update got before the alarm).
    _, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered"
    assert any(
        "consecutive" in a.reason for a in dep.controller.alarms
    ), dep.controller.alarms


def test_sl_after_dl_succeeds():
    """The sanctioned sequence: DL, then SL resets old distances."""
    dep, flow = fig1_deployment()
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run()
    dep.controller.update_flow(flow.flow_id, list(FIG1_OLD_PATH), UpdateType.SINGLE)
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    assert dep.checker.ok, dep.checker.violations
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == list(FIG1_OLD_PATH)


def test_dl_on_forward_only_detour():
    """DL on a simple detour (single forward segment) still works."""
    topo = ring_topology(6, latency_ms=2.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params())
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.DUAL)
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    assert dep.checker.ok, dep.checker.violations
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == ["n0", "n5", "n4", "n3"]
