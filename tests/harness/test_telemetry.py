"""Tests for the deployment telemetry surface."""


from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.params import DelayDistribution, SimParams
from repro.topo.synthetic import ring_topology
from repro.traffic.flows import Flow


def run_update():
    params = SimParams(
        seed=0,
        pipeline_delay=DelayDistribution.constant(0.1),
        rule_install_delay=DelayDistribution.constant(1.0),
        controller_service=DelayDistribution.constant(0.2),
        controller_background_util=0.0,
        unm_generation_delay=DelayDistribution.constant(0.5),
    )
    topo = ring_topology(6, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=params)
    flow = Flow.between("n0", "n3", size=1.0, old_path=["n0", "n1", "n2", "n3"])
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE)
    dep.run()
    return dep


def test_telemetry_totals_reflect_protocol_activity():
    dep = run_update()
    telemetry = dep.telemetry()
    totals = telemetry["total"]
    # 3 UNM hops + 3 cleanup hops processed somewhere.
    assert totals["unm_processed"] == 3
    assert totals["installs_completed"] >= 4
    assert totals["alarms"] == 0


def test_telemetry_per_switch_breakdown():
    dep = run_update()
    per_switch = dep.telemetry()["per_switch"]
    assert set(per_switch) == set(dep.switches)
    # The egress n3 installed (register bump); n4/n5 installed rules.
    assert per_switch["n4"]["installs_completed"] == 1
    assert per_switch["n5"]["installs_completed"] == 1
    # Cleanups removed the old rules at n1, n2.
    assert per_switch["n1"]["packets_processed"] >= 1


def test_telemetry_totals_sum_per_switch():
    dep = run_update()
    telemetry = dep.telemetry()
    for key, total in telemetry["total"].items():
        assert total == sum(row[key] for row in telemetry["per_switch"].values())
