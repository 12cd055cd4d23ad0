"""Tests for the §11 extensions: rule cleanup, UNM-loss recovery, and
the App. C consecutive-dual-layer extension."""


from repro.consistency import LiveChecker
from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.params import DelayDistribution, SimParams
from repro.sim.faults import CompositeFaultModel, FaultAction, ScriptedFault
from repro.topo import fig1_topology, ring_topology
from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH
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


# -- §11 rule cleanup -----------------------------------------------------------

def test_cleanup_removes_abandoned_rules_and_reservations():
    """After rerouting away from n1/n2, those nodes must drop the
    flow's rules and release their capacity reservations."""
    topo = ring_topology(6, latency_ms=1.0, capacity=10.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params())
    flow = Flow.between("n0", "n3", size=4.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE)
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    for node in ("n1", "n2"):
        switch = dep.switches[node]
        state = switch.program.state_of(flow.flow_id)
        assert state.new_version == 0, f"{node} kept stale state"
        # All reservations must be zero on every port.
        for port in (1, 2):
            assert switch.program.scheduler.port_budget(port).reserved == 0.0
        assert dep.forwarding_state.next_hop(flow.flow_id, node) is None


def test_cleanup_spares_nodes_on_the_new_path():
    """A cleanup racing through must stop at nodes with a pending or
    applied UIM of the new version (they serve the mixed path)."""
    topo = fig1_topology()
    dep = build_p4update_network(topo, params=fast_params())
    checker = LiveChecker(dep.forwarding_state, dep.network.trace)
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run()
    assert checker.ok, checker.violations
    # Every new-path node still has its rule.
    for a, b in zip(FIG1_NEW_PATH, FIG1_NEW_PATH[1:]):
        assert dep.forwarding_state.next_hop(flow.flow_id, a) == b


def test_cleanup_never_removes_egress_delivery():
    topo = ring_topology(5, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params())
    flow = Flow.between("n0", "n2", size=1.0, old_path=["n0", "n1", "n2"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n4", "n3", "n2"], UpdateType.SINGLE)
    dep.run()
    egress_state = dep.switches["n2"].program.state_of(flow.flow_id)
    assert egress_state.new_version >= 1, "egress must keep its state"


# -- §11 UNM-loss recovery ---------------------------------------------------------

def drop_first_unm_fault():
    """Drop the first UNM that crosses the data plane."""
    return CompositeFaultModel([
        ScriptedFault(
            matches=lambda m: hasattr(m, "has_valid") and m.has_valid("unm"),
            action=FaultAction.DROP,
            max_hits=1,
        )
    ])


def test_recovery_retriggers_after_unm_loss():
    topo = ring_topology(6, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params())
    dep.network.fault_model = drop_first_unm_fault()
    for switch in dep.switches.values():
        switch.unm_timeout_ms = 50.0
    checker = LiveChecker(dep.forwarding_state, dep.network.trace)
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE)
    dep.run(until=5_000.0)
    assert dep.controller.update_complete(flow.flow_id), "recovery must finish the update"
    assert checker.ok, checker.violations
    assert any(a.reason == "unm_timeout" for a in dep.controller.alarms)


def test_without_recovery_a_lost_unm_stalls_the_update():
    """Control: the same drop without the watchdog never completes —
    which is exactly why §11 proposes the monitoring."""
    topo = ring_topology(6, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params())
    dep.network.fault_model = drop_first_unm_fault()
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE)
    dep.run(until=5_000.0)
    assert not dep.controller.update_complete(flow.flow_id)


def test_recovery_bounded_retriggers():
    """A switch black-holing all UNMs must not trigger unbounded
    re-sends: the controller stops after max_retriggers."""
    topo = ring_topology(6, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params())
    dep.network.fault_model = CompositeFaultModel([
        ScriptedFault(
            matches=lambda m: hasattr(m, "has_valid") and m.has_valid("unm"),
            action=FaultAction.DROP,
        )
    ])
    for switch in dep.switches.values():
        switch.unm_timeout_ms = 20.0
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE)
    dep.run(until=10_000.0)
    version = dep.controller.flow_db[flow.flow_id].pending_version
    key = (flow.flow_id, version)
    assert dep.controller._retriggers.get(key, 0) <= dep.controller.max_retriggers


# -- App. C: consecutive dual-layer updates ---------------------------------------------

def fig1_deployment(allow_consecutive=False):
    topo = fig1_topology()
    dep = build_p4update_network(topo, params=fast_params())
    if allow_consecutive:
        for switch in dep.switches.values():
            switch.program.allow_consecutive_dual = True
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    dep.install_flow(flow)
    return dep, flow


def test_appc_extension_allows_dl_after_dl():
    dep, flow = fig1_deployment(allow_consecutive=True)
    checker = LiveChecker(dep.forwarding_state, dep.network.trace)
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run()
    dep.controller.update_flow(flow.flow_id, list(FIG1_OLD_PATH), UpdateType.DUAL)
    dep.run(until=dep.network.engine.now + 30_000.0)
    assert checker.ok, checker.violations
    assert dep.controller.update_complete(flow.flow_id)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == list(FIG1_OLD_PATH)


def test_appc_extension_stays_consistent_over_three_dl_rounds():
    dep, flow = fig1_deployment(allow_consecutive=True)
    checker = LiveChecker(dep.forwarding_state, dep.network.trace)
    paths = [list(FIG1_NEW_PATH), list(FIG1_OLD_PATH), list(FIG1_NEW_PATH)]
    for path in paths:
        dep.controller.update_flow(flow.flow_id, path, UpdateType.DUAL)
        dep.run(until=dep.network.engine.now + 30_000.0)
    assert checker.ok, checker.violations
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == list(FIG1_NEW_PATH)


def test_without_extension_dl_after_dl_alarms():
    dep, flow = fig1_deployment(allow_consecutive=False)
    dep.controller.update_flow(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    dep.run()
    dep.controller.update_flow(flow.flow_id, list(FIG1_OLD_PATH), UpdateType.DUAL)
    dep.run(until=dep.network.engine.now + 20_000.0)
    assert any("consecutive" in a.reason for a in dep.controller.alarms)
