"""Tests for the §11 two-phase-commit integration.

The property 2PC buys beyond loop/blackhole freedom is *per-packet
consistency* (Reitblatt et al.): every packet traverses the old path
entirely or the new path entirely — never a mix.  Plain SL updates
give the weaker relative consistency (mixed but loop-free paths).
"""


import pytest

from repro.consistency import LiveChecker
from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.harness.probes import ProbeSource
from repro.params import DelayDistribution, SimParams
from repro.sim.trace import KIND_PACKET_DELIVERED
from repro.topo import ring_topology
from repro.traffic.flows import Flow


def fast_params(seed=0, install_ms=5.0):
    return SimParams(
        seed=seed,
        pipeline_delay=DelayDistribution.constant(0.1),
        rule_install_delay=DelayDistribution.constant(install_ms),
        controller_service=DelayDistribution.constant(0.2),
        controller_background_util=0.0,
        unm_generation_delay=DelayDistribution.constant(0.5),
    )


OLD = ["n0", "n1", "n2", "n3"]
NEW = ["n0", "n7", "n6", "n5", "n4", "n3"]


def deployment(install_ms=5.0, seed=0):
    topo = ring_topology(8, latency_ms=1.0)
    topo.set_controller("n0")
    dep = build_p4update_network(topo, params=fast_params(seed, install_ms))
    flow = Flow.between("n0", "n3", size=1.0, old_path=list(OLD))
    dep.install_flow(flow)
    return dep, flow


def delivered_hop_logs(dep, flow):
    """Hop sequences of all delivered probes, via the delivery trace's
    per-packet meta (the packet object is shared along the walk)."""
    logs = []
    for event in dep.network.trace.of_kind(KIND_PACKET_DELIVERED):
        if event.detail.get("flow") == flow.flow_id:
            logs.append(event.detail.get("seq"))
    return logs


def run_with_probes(dep, flow, update, probe_until=400.0):
    probes = []

    # Capture packet hop logs at delivery time via the delivered hook.
    for switch in dep.switches.values():
        def wrapped(flow_id, packet, _orig=switch.note_probe_delivered):
            probes.append(list(packet.meta.get("hops", [])))
            _orig(flow_id, packet)
        switch.note_probe_delivered = wrapped

    source = ProbeSource(dep, flow.flow_id, flow.src, rate_pps=400.0)
    source.start(at=1.0, stop_at=probe_until)
    update()
    dep.run(until=probe_until + 500.0)
    return probes, source


@pytest.mark.usefixtures("shadow_checker")     # N records for one tag flip
def test_two_phase_update_completes():
    dep, flow = deployment()
    checker = LiveChecker(dep.forwarding_state, dep.network.trace)
    dep.controller.two_phase_update(flow.flow_id, list(NEW))
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    assert checker.ok, checker.violations
    record = dep.controller.flow_db[flow.flow_id]
    assert record.current_tag == 1 and record.staged_tag is None
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == list(NEW)


def test_two_phase_gives_per_packet_consistency():
    """Every delivered probe follows exactly the old or the new path."""
    dep, flow = deployment(install_ms=8.0)
    probes, source = run_with_probes(
        dep, flow,
        lambda: dep.network.engine.schedule(
            50.0, dep.controller.two_phase_update, flow.flow_id, list(NEW)
        ),
    )
    assert dep.controller.update_complete(flow.flow_id)
    assert len(probes) == source.sent, "2PC must not drop packets"
    mixed = [p for p in probes if p != OLD and p != NEW]
    assert mixed == [], f"mixed paths under 2PC: {mixed[:3]}"
    assert any(p == OLD for p in probes), "some probes must predate the flip"
    assert any(p == NEW for p in probes), "some probes must follow the flip"


def test_plain_sl_allows_mixed_paths():
    """Contrast: relative consistency permits (loop-free) mixed paths.

    Uses Fig. 1, where old and new paths interleave (gateways v0, v2,
    v4): while v4 has flipped to the new rules but v0 has not, packets
    travel v0 -> v4 -> v5 -> v6 -> v7 — a mix of both configurations.
    """
    from repro.topo import fig1_topology
    from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH

    topo = fig1_topology(latency_ms=2.0)
    topo.set_controller("v0")
    dep = build_p4update_network(topo, params=fast_params(install_ms=8.0))
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    dep.install_flow(flow)
    probes, _ = run_with_probes(
        dep, flow,
        lambda: dep.network.engine.schedule(
            20.0, dep.controller.update_flow, flow.flow_id,
            list(FIG1_NEW_PATH), UpdateType.SINGLE,
        ),
        probe_until=300.0,
    )
    old, new = list(FIG1_OLD_PATH), list(FIG1_NEW_PATH)
    mixed = [p for p in probes if p != old and p != new]
    assert mixed, "SL should exhibit transient mixed (but consistent) paths"
    # Every mixed path must still be loop-free and terminate at v7.
    for path in mixed:
        assert len(set(path)) == len(path), f"loop in {path}"
        assert path[-1] == "v7"


def test_second_two_phase_update_flips_back_to_tag0():
    dep, flow = deployment()
    dep.controller.two_phase_update(flow.flow_id, list(NEW))
    dep.run()
    dep.controller.two_phase_update(flow.flow_id, list(OLD))
    dep.run()
    record = dep.controller.flow_db[flow.flow_id]
    assert record.current_tag == 0
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == list(OLD)


def test_staged_rules_do_not_disturb_live_traffic():
    """Before the flip, the live forwarding must be exactly the old
    path even though all new-tag rules are already staged."""
    dep, flow = deployment(install_ms=2.0)
    dep.controller.two_phase_update(flow.flow_id, list(NEW))
    # Run long enough to stage everything but intercept the flip by
    # dropping TagFlip messages.
    from repro.core.messages import TagFlip
    from repro.sim.faults import CompositeFaultModel, FaultAction, ScriptedFault

    dep.network.control_fault_model = CompositeFaultModel([
        ScriptedFault(matches=lambda m: isinstance(m, TagFlip),
                      action=FaultAction.DROP)
    ])
    dep.run(until=2_000.0)
    assert not dep.controller.update_complete(flow.flow_id)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == list(OLD), (
        "live forwarding must stay on the old path until the flip"
    )
    # All new-tag rules are staged on the new path's switches.
    for node in NEW[:-1]:
        idx = dep.switches[node].program.flow_index.index_of(flow.flow_id)
        staged = dep.switches[node].program.registers["port_tag1"].read(idx)
        assert staged != 0xFFFF, f"{node} has no staged rule"
