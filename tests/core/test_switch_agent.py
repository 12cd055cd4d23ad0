"""Unit tests for P4UpdateSwitch internals: install supersession,
fast-forward interplay, multi-flow coexistence on one switch."""


from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.params import DelayDistribution, SimParams
from repro.topo.synthetic import ring_topology
from repro.traffic.flows import Flow


def fast_params(seed=0, install_ms=1.0):
    return SimParams(
        seed=seed,
        pipeline_delay=DelayDistribution.constant(0.1),
        rule_install_delay=DelayDistribution.constant(install_ms),
        controller_service=DelayDistribution.constant(0.2),
        controller_background_util=0.0,
        unm_generation_delay=DelayDistribution.constant(0.5),
    )


def deployment(install_ms=1.0):
    topo = ring_topology(6, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params(install_ms=install_ms))
    return dep


def test_two_flows_coexist_on_shared_switches():
    dep = deployment()
    f1 = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    f2 = Flow.between("n1", "n4", size=1.0, old_path=["n1", "n2", "n3", "n4"])
    dep.install_flow(f1)
    dep.install_flow(f2)
    dep.controller.update_flow(f1.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE)
    dep.controller.update_flow(f2.flow_id, ["n1", "n0", "n5", "n4"], UpdateType.SINGLE)
    dep.run()
    assert dep.controller.all_updates_complete()
    assert dep.checker.ok, dep.checker.violations
    for flow, target in ((f1, ["n0", "n5", "n4", "n3"]), (f2, ["n1", "n0", "n5", "n4"])):
        walk, outcome = dep.forwarding_state.walk(flow.flow_id)
        assert outcome == "delivered" and walk == target


def test_fast_forward_supersedes_slow_install():
    """A v2 install still in flight is superseded by v3: the final
    state must be v3's rules, never a late v2 overwrite."""
    dep = deployment(install_ms=50.0)
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE)
    # Push v3 while v2's installs (50 ms each) are mid-flight.
    dep.network.engine.schedule(
        60.0, dep.controller.update_flow,
        flow.flow_id, ["n0", "n1", "n2", "n3"], UpdateType.SINGLE,
    )
    dep.run()
    assert dep.checker.ok, dep.checker.violations
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == ["n0", "n1", "n2", "n3"]
    # Every switch converged to version 3 where it holds the flow.
    for node in ("n0", "n1", "n2"):
        state = dep.switches[node].program.state_of(flow.flow_id)
        assert state.new_version == 3, (node, state)


def test_installing_version_tracking():
    dep = deployment(install_ms=30.0)
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE)
    # Mid-install at n4 (egress chain start: n3 cheap, then n4 at ~30ms).
    dep.run(until=20.0)
    switch = dep.switches["n4"]
    assert switch.installing_version(flow.flow_id) in (0, 2)
    dep.run()
    assert switch.installing_version(flow.flow_id) == 2
    assert switch.program.state_of(flow.flow_id).new_version == 2


def test_alarm_list_mirrors_control_alarms():
    dep = deployment()
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    from repro.core.messages import UIM

    stale = UIM(
        target="n2", flow_id=flow.flow_id, version=1, new_distance=1,
        egress_port=1, flow_size=1.0, update_type=UpdateType.SINGLE,
        child_port=None,
    )
    dep.controller.send_control(stale)
    dep.run()
    assert len(dep.switches["n2"].alarms) == 1
    assert len(dep.controller.alarms) == 1


def test_flow_index_isolated_per_switch():
    """Dense flow indices are per switch; different switches may assign
    different indices to the same flow without interference."""
    dep = deployment()
    f1 = Flow.between("n0", "n2", size=1.0, old_path=["n0", "n1", "n2"])
    f2 = Flow.between("n3", "n5", size=1.0, old_path=["n3", "n4", "n5"])
    dep.install_flow(f1)
    dep.install_flow(f2)
    idx_n1_f1 = dep.switches["n1"].program.flow_index.index_of(f1.flow_id)
    idx_n4_f2 = dep.switches["n4"].program.flow_index.index_of(f2.flow_id)
    assert idx_n1_f1 == 0 and idx_n4_f2 == 0   # both first on their switch
    # No cross-talk: n1 never saw f2.
    assert not dep.switches["n1"].program.flow_index.known(f2.flow_id)
