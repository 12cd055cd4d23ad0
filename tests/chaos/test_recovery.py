"""Controller recovery from topology failures.

Link failures and switch crashes must end in one of exactly two
states: the flow rerouted onto a working path (consistently, §5
invariants intact) or parked with a structured report.  Repairs must
un-park flows.
"""

from repro.harness.build import build_p4update_network
from repro.obs.context import make_obs
from repro.params import SimParams
from repro.topo.synthetic import (
    FIG1_NEW_PATH,
    FIG1_OLD_PATH,
    fig1_topology,
    line_topology,
)
from repro.traffic.flows import Flow


def fig1_deployment(seed=0, obs=None, **param_overrides):
    params = SimParams(seed=seed, **param_overrides)
    dep = build_p4update_network(fig1_topology(), params=params, obs=obs)
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    dep.install_flow(flow)
    return dep, flow


def test_link_failure_on_current_path_triggers_reroute():
    dep, flow = fig1_deployment()
    dep.network.engine.schedule_at(
        5.0, dep.network.set_link_state, "v4", "v2", False
    )
    dep.run()
    record = dep.controller.flow_db[flow.flow_id]
    assert dep.controller.update_complete(flow.flow_id)
    assert not record.parked
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered"
    assert not any(
        frozenset(pair) == frozenset(("v4", "v2")) for pair in zip(walk, walk[1:])
    )
    assert dep.checker.ok, dep.checker.violations[:3]


def test_link_failure_mid_update_aborts_then_reroutes():
    """Failure lands while the DL update is in flight: the pending
    update is aborted (Flow-DB rolled back) and a detour is pushed."""
    dep, flow = fig1_deployment()
    dep.network.engine.schedule_at(
        10.0, dep.controller.update_flow, flow.flow_id, list(FIG1_NEW_PATH)
    )
    # v5-v6 is on the *new* path only; break it mid-update.
    dep.network.engine.schedule_at(
        12.0, dep.network.set_link_state, "v5", "v6", False
    )
    dep.run()
    record = dep.controller.flow_db[flow.flow_id]
    assert dep.controller.update_complete(flow.flow_id)
    assert not record.parked
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered"
    assert not any(
        frozenset(pair) == frozenset(("v5", "v6")) for pair in zip(walk, walk[1:])
    )
    assert dep.network.trace.count_of_kind("update_aborted") >= 1
    assert dep.checker.ok, dep.checker.violations[:3]


def test_switch_crash_reroutes_around_the_node():
    dep, flow = fig1_deployment()
    dep.network.engine.schedule_at(5.0, dep.network.crash_switch, "v4")
    dep.run()
    record = dep.controller.flow_db[flow.flow_id]
    assert dep.controller.update_complete(flow.flow_id)
    assert not record.parked
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered"
    assert "v4" not in walk
    assert dep.checker.ok, dep.checker.violations[:3]


def test_crash_and_restart_still_converges():
    dep, flow = fig1_deployment()
    dep.network.engine.schedule_at(5.0, dep.network.crash_switch, "v4")
    dep.network.engine.schedule_at(300.0, dep.network.restart_switch, "v4")
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    _, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered"
    assert dep.checker.ok, dep.checker.violations[:3]


def test_no_alternate_path_parks_with_report():
    topo = line_topology(3)
    dep = build_p4update_network(topo, params=SimParams(seed=0))
    flow = Flow.between("n0", "n2", size=1.0, old_path=["n0", "n1", "n2"])
    dep.install_flow(flow)
    dep.network.engine.schedule_at(
        5.0, dep.network.set_link_state, "n1", "n2", False
    )
    dep.run()
    record = dep.controller.flow_db[flow.flow_id]
    assert record.parked
    assert len(dep.controller.parked) == 1
    report = dep.controller.parked[0]
    assert report.flow_id == flow.flow_id
    assert report.src == "n0" and report.dst == "n2"
    assert "n1|n2" in report.failed_edges
    assert dep.network.trace.count_of_kind("flow_parked")
    # The gap is environmental, not a protocol violation.
    assert dep.checker.ok, dep.checker.violations[:3]


def test_link_repair_unparks_the_flow():
    topo = line_topology(3)
    dep = build_p4update_network(topo, params=SimParams(seed=0))
    flow = Flow.between("n0", "n2", size=1.0, old_path=["n0", "n1", "n2"])
    dep.install_flow(flow)
    dep.network.engine.schedule_at(
        5.0, dep.network.set_link_state, "n1", "n2", False
    )
    dep.network.engine.schedule_at(
        500.0, dep.network.set_link_state, "n1", "n2", True
    )
    dep.run()
    record = dep.controller.flow_db[flow.flow_id]
    assert not record.parked
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered"
    assert walk == ["n0", "n1", "n2"]
    assert dep.checker.ok, dep.checker.violations[:3]


def test_recovery_metrics_are_observed():
    obs = make_obs()
    dep, flow = fig1_deployment(obs=obs)
    dep.network.engine.schedule_at(5.0, dep.network.set_link_state, "v4", "v2", False)
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    metrics = obs.metrics
    assert metrics.value("nib_updates", node="controller", kind="port_down") >= 1
    assert metrics.value("flow_reroutes", node="controller") >= 1
    assert metrics.value("flow_recoveries", node="controller") >= 1
    snapshot = obs.snapshot()["metrics"]
    assert "recovery_latency_ms" in snapshot
    record = dep.controller.flow_db[flow.flow_id]
    assert record.recovering_since is None   # cleared at completion


def test_exhausted_control_retries_escalate_to_recovery():
    """A switch that stops acking is treated as failed: its edges are
    marked down and flows are routed around it."""
    dep, flow = fig1_deployment(
        reliable_control=True,
        control_retry_timeout_ms=20.0,
        control_retry_jitter_ms=0.0,
        control_max_retries=2,
    )
    dep.network.engine.schedule_at(5.0, dep.network.crash_switch, "v2")
    dep.run()
    # v2 was on the old path; the controller must have recovered the
    # flow onto a path that avoids it.
    assert dep.controller.update_complete(flow.flow_id)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered"
    assert "v2" not in walk
    assert dep.checker.ok, dep.checker.violations[:3]


def test_crash_state_policy_volatile_vs_preserved():
    """A volatile crash wipes the switch's rules and registers; a
    preserving crash (NVRAM policy) keeps them."""
    for preserve in (False, True):
        dep, flow = fig1_deployment()
        dep.run(until=5.0)                      # let installs settle
        assert dep.forwarding_state.next_hop(flow.flow_id, "v4") == "v2"
        dep.network.crash_switch("v4", preserve_state=preserve)
        if preserve:
            assert dep.forwarding_state.next_hop(flow.flow_id, "v4") == "v2"
            assert dep.switches["v4"].program.state_of(flow.flow_id).new_version > 0
        else:
            assert dep.forwarding_state.next_hop(flow.flow_id, "v4") is None
            assert dep.switches["v4"].program.state_of(flow.flow_id).new_version == 0


def test_controller_outage_window_delays_but_does_not_break_update():
    dep, flow = fig1_deployment(controller_update_timeout_ms=2_000.0)
    dep.network.engine.schedule_at(
        10.0, dep.controller.update_flow, flow.flow_id, list(FIG1_NEW_PATH)
    )
    # The controller goes dark right after fan-out; completion UFMs
    # arriving during the window wait in the preserved service queue.
    dep.network.engine.schedule_at(11.0, dep.network.set_controller_outage, True)
    dep.network.engine.schedule_at(500.0, dep.network.set_controller_outage, False)
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered"
    assert walk == list(FIG1_NEW_PATH)
    assert dep.checker.ok, dep.checker.violations[:3]
