"""Edge-case tests for the controller and UIM handling at switches."""

import pytest

from repro.core.messages import UFM, UIM, UpdateType, make_probe
from repro.harness.build import build_p4update_network
from repro.params import DelayDistribution, SimParams
from repro.topo.synthetic import ring_topology
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


def deployment():
    topo = ring_topology(6, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params())
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    return dep, flow


def test_prepare_update_fields():
    dep, flow = deployment()
    prepared = dep.controller.prepare_update(
        flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE
    )
    assert prepared.version == 2
    assert prepared.update_type is UpdateType.SINGLE
    by_target = {u.target: u for u in prepared.uims}
    assert by_target["n3"].is_flow_egress and by_target["n3"].new_distance == 0
    assert by_target["n0"].is_ingress and by_target["n0"].new_distance == 3
    assert by_target["n0"].child_port is None
    assert by_target["n4"].child_port is not None


def test_register_flow_requires_initial_path():
    dep, _ = deployment()
    with pytest.raises(ValueError):
        dep.controller.register_flow(Flow(flow_id=99, src="n0", dst="n1", size=1.0))


def test_frm_reported_flows_collected():
    dep, flow = deployment()
    # A probe for an unknown flow makes the first switch send an FRM.
    unknown = make_probe(flow_id=4242, seq=0)
    dep.switches["n1"].handle_message(unknown)
    dep.run()
    assert any(f.flow_id == 4242 for f in dep.controller.reported_flows)


def test_downgrade_uim_triggers_alarm():
    """A UIM older than the applied version is rejected with an alarm
    (inconsistent controller view, §7.1 scenario iii)."""
    dep, flow = deployment()
    dep.controller.update_flow(flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE)
    dep.run()
    stale = UIM(
        target="n3", flow_id=flow.flow_id, version=1, new_distance=0,
        egress_port=511, flow_size=1.0, update_type=UpdateType.SINGLE,
        child_port=None, is_flow_egress=True,
    )
    dep.controller.send_control(stale)
    dep.run()
    assert any("not newer" in a.reason for a in dep.controller.alarms)


def test_duplicate_uims_are_idempotent():
    dep, flow = deployment()
    prepared = dep.controller.prepare_update(
        flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE
    )
    dep.controller.push_update(prepared)
    for uim in prepared.uims:          # send everything twice
        dep.controller.send_control(uim)
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    assert dep.checker.ok, dep.checker.violations


def test_ufm_for_unknown_flow_ignored():
    dep, _ = deployment()
    dep.controller._handle_ufm(
        UFM(flow_id=123456, version=9, reporter="ghost", status="success")
    )
    # No exception, no record created.
    assert 123456 not in dep.controller.flow_db


def test_stale_ufm_version_does_not_complete():
    dep, flow = deployment()
    dep.controller.prepare_update(
        flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE
    )
    stale = UFM(flow_id=flow.flow_id, version=1, reporter="n0", status="success")
    dep.controller._handle_ufm(stale)
    assert not dep.controller.update_complete(flow.flow_id)


def test_update_duration_none_before_completion():
    dep, flow = deployment()
    assert dep.controller.update_duration(flow.flow_id) is None


def test_alarm_ufms_recorded_per_flow():
    dep, flow = deployment()
    alarm = UFM(
        flow_id=flow.flow_id, version=2, reporter="n1",
        status="alarm", reason="drop_distance: boom",
    )
    dep.controller._handle_ufm(alarm)
    assert dep.controller.alarms == [alarm]
    assert dep.controller.flow_db[flow.flow_id].alarms == [alarm]
