"""Unit tests for the deployment builders."""

import pytest

from repro.harness.build import assign_ports, build_p4update_network
from repro.harness.baselines_build import (
    build_central_network,
    build_ezsegway_network,
)
from repro.params import SimParams
from repro.topo import b4_topology, fattree_topology, ring_topology
from repro.traffic.flows import Flow


def test_assign_ports_deterministic_and_dense():
    topo = ring_topology(5)
    ports = assign_ports(topo)
    assert ports == assign_ports(topo)
    for node in topo.nodes:
        local = sorted(p for (n, _), p in ports.items() if n == node)
        assert local == list(range(1, len(topo.neighbors(node)) + 1))


def test_build_places_controller_at_centroid_when_unset():
    topo = b4_topology()
    assert topo.controller is None
    dep = build_p4update_network(topo, params=SimParams(seed=0))
    assert topo.controller is not None
    assert dep.network.controller_name == "controller"


def test_build_respects_preplaced_controller():
    topo = ring_topology(5)
    topo.set_controller("n2")
    build_p4update_network(topo, params=SimParams(seed=0))
    assert topo.controller == "n2"


def test_control_channels_for_every_switch():
    topo = b4_topology()
    dep = build_p4update_network(topo, params=SimParams(seed=0))
    assert set(dep.network.control_channels) == set(topo.nodes)
    # WAN: channel latency equals the shortest-path latency.
    for name in topo.nodes:
        expected = topo.control_latency(name)
        assert dep.network.control_channels[name].latency_ms == pytest.approx(expected)


def test_fattree_control_latency_sampled_from_distribution():
    topo = fattree_topology(4)
    params = SimParams(seed=0)
    dep = build_p4update_network(topo, params=params)
    latencies = [c.latency_ms for c in dep.network.control_channels.values()]
    # Sampled per switch: spread, and all above the floor.
    assert len(set(round(l, 6) for l in latencies)) > 1
    assert min(latencies) >= 0.5


def test_install_flow_requires_initial_path():
    topo = ring_topology(5)
    dep = build_p4update_network(topo, params=SimParams(seed=0))
    with pytest.raises(ValueError):
        dep.install_flow(Flow(flow_id=1, src="n0", dst="n2", size=1.0))


def test_install_flow_registers_everywhere():
    topo = ring_topology(5)
    dep = build_p4update_network(topo, params=SimParams(seed=0))
    flow = Flow.between("n0", "n2", size=2.5, old_path=["n0", "n1", "n2"])
    dep.install_flow(flow)
    assert dep.forwarding_state.walk(flow.flow_id)[1] == "delivered"
    assert flow.flow_id in dep.controller.flow_db
    assert dep.switches["n1"].program.flow_size_of(flow.flow_id) == 2.5


def test_per_switch_rngs_are_independent():
    topo = ring_topology(5)
    dep = build_p4update_network(topo, params=SimParams(seed=0))
    draws = {
        name: switch.rng.random() for name, switch in dep.switches.items()
    }
    assert len(set(draws.values())) == len(draws)


def test_all_three_builders_share_port_layout():
    topo = ring_topology(5)
    p4 = build_p4update_network(topo, params=SimParams(seed=0))
    ez = build_ezsegway_network(ring_topology(5), params=SimParams(seed=0))
    central = build_central_network(ring_topology(5), params=SimParams(seed=0))
    for net in (p4.network, ez.network, central.network):
        assert net.port_towards("n0", "n1") == p4.network.port_towards("n0", "n1")


@pytest.mark.parametrize(
    "builder",
    (build_p4update_network, build_ezsegway_network, build_central_network),
)
def test_every_system_honours_trace_max_events(builder):
    bounded = builder(ring_topology(5), params=SimParams(trace_max_events=50))
    assert bounded.network.trace.max_events == 50
    assert builder(ring_topology(5)).network.trace.max_events == 0


def test_one_deployment_class_behind_all_three_builders():
    kinds = {
        type(builder(ring_topology(4), params=SimParams(seed=0)))
        for builder in (
            build_p4update_network, build_ezsegway_network, build_central_network
        )
    }
    assert len(kinds) == 1
