"""Tests for §11 compact updates (piggybacked UIMs on the UNM)."""


from repro.core.messages import UpdateType
from repro.harness.analysis import watch_messages
from repro.harness.build import build_p4update_network
from repro.params import DelayDistribution, SimParams
from repro.topo.synthetic import (
    FIG1_NEW_PATH,
    FIG1_OLD_PATH,
    fig1_topology,
    ring_topology,
)
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


def fig1_deployment():
    topo = fig1_topology()
    dep = build_p4update_network(topo, params=fast_params())
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    dep.install_flow(flow)
    return dep, flow


def test_compact_sl_update_completes():
    topo = ring_topology(6, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params())
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    prepared = dep.controller.compact_update(
        flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE
    )
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    assert dep.checker.ok, dep.checker.violations
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == ["n0", "n5", "n4", "n3"]
    # SL compact: one single UIM to the egress carries everything.
    assert len(prepared.uims) == 1
    assert prepared.uims[0].target == "n3"
    assert len(prepared.uims[0].piggyback) == 3


def test_compact_dl_sends_uims_to_exactly_the_paper_nodes():
    """§11: 'send out messages ... e.g., only to v7, v4, v2 in Fig. 1'."""
    dep, flow = fig1_deployment()
    prepared = dep.controller.compact_update(
        flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL
    )
    targets = {uim.target for uim in prepared.uims}
    assert targets == {"v7", "v4", "v2"}
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == list(FIG1_NEW_PATH)


def test_compact_dl_is_consistent():
    dep, flow = fig1_deployment()
    dep.controller.compact_update(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run()
    assert dep.checker.ok, dep.checker.violations
    assert dep.controller.alarms == []


def test_compact_reduces_control_messages():
    def run(compact):
        dep, flow = fig1_deployment()
        stats = watch_messages(dep.network.trace)
        if compact:
            dep.controller.compact_update(
                flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL
            )
        else:
            dep.controller.update_flow(
                flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL
            )
        dep.run()
        assert dep.controller.update_complete(flow.flow_id)
        return stats

    full = run(compact=False)
    compact = run(compact=True)
    assert compact.by_type["UIM"] == 3
    assert full.by_type["UIM"] == len(FIG1_NEW_PATH)
    assert compact.control_plane < full.control_plane


def test_compact_retains_parallelism():
    """Compact DL must not serialize: the forward segments still update
    concurrently (interior installs before the backward gateway)."""
    dep, flow = fig1_deployment()
    dep.controller.compact_update(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run()
    changes = {
        e.node: e.time
        for e in dep.network.trace
        if e.kind == "rule_change" and e.detail.get("flow") == flow.flow_id
    }
    assert changes["v1"] < changes["v2"], "segment {v0,v1,v2} ran in parallel"
    assert changes["v2"] > changes["v4"], "backward gateway still ordered"
