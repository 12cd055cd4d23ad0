"""Unit tests for topology construction and the latency model."""

import math

import networkx as nx
import pytest

from repro.topo import (
    attmpls_topology,
    b4_topology,
    chinanet_topology,
    fattree_topology,
    fig1_topology,
    fig2_topology,
    geo_latency_ms,
    haversine_km,
    internet2_topology,
    line_topology,
    ring_topology,
    six_node_topology,
)
from repro.topo.graph import Topology
from repro.topo.synthetic import (
    FIG1_NEW_PATH,
    FIG1_OLD_PATH,
    FIG2_CONFIG_A,
    FIG2_CONFIG_B,
    FIG2_CONFIG_C,
    SIX_NODE_INITIAL,
    SIX_NODE_U2,
    SIX_NODE_U3,
)
from tests.topo.test_paths_parity import shared_graph


# -- latency model ---------------------------------------------------------

def test_haversine_zero_for_same_point():
    assert haversine_km(40.0, -74.0, 40.0, -74.0) == 0.0


def test_haversine_known_distance_ny_la():
    # New York - Los Angeles is about 3940 km great-circle.
    d = haversine_km(40.71, -74.01, 34.05, -118.24)
    assert 3800 < d < 4050


def test_geo_latency_uses_fibre_speed():
    # 2000 km at 200 km/ms -> 10 ms.  Pick points ~2000km apart on equator.
    lat1, lon1 = 0.0, 0.0
    lon2 = math.degrees(2000.0 / 6371.0)
    latency = geo_latency_ms(lat1, lon1, 0.0, lon2)
    assert latency == pytest.approx(10.0, rel=0.01)


def test_geo_latency_floor():
    assert geo_latency_ms(1.0, 1.0, 1.0, 1.0) == 0.05


# -- synthetic topologies ----------------------------------------------------

def test_fig1_contains_both_paths():
    topo = fig1_topology()
    for path in (FIG1_OLD_PATH, FIG1_NEW_PATH):
        for a, b in zip(path, path[1:]):
            assert b in topo.adj[a]


def test_fig1_homogeneous_20ms_links():
    topo = fig1_topology()
    assert all(e.latency_ms == 20.0 for e in topo.edges)


def test_fig2_paths_exist():
    topo = fig2_topology()
    for path in (FIG2_CONFIG_A, FIG2_CONFIG_B, FIG2_CONFIG_C):
        for a, b in zip(path, path[1:]):
            assert b in topo.adj[a]


def test_fig2_has_five_nodes():
    assert fig2_topology().num_nodes() == 5


def test_six_node_paths_exist():
    topo = six_node_topology()
    assert topo.num_nodes() == 6
    for path in (SIX_NODE_INITIAL, SIX_NODE_U2, SIX_NODE_U3):
        for a, b in zip(path, path[1:]):
            assert b in topo.adj[a]


def test_line_topology_structure():
    topo = line_topology(5)
    assert topo.num_nodes() == 5 and topo.num_edges() == 4
    assert topo.shortest_path("n0", "n4") == ["n0", "n1", "n2", "n3", "n4"]


def test_line_too_short_rejected():
    with pytest.raises(ValueError):
        line_topology(1)


def test_ring_topology_structure():
    topo = ring_topology(6)
    assert topo.num_nodes() == 6 and topo.num_edges() == 6
    assert all(len(peers) == 2 for peers in topo.adj.values())


def test_ring_too_short_rejected():
    with pytest.raises(ValueError):
        ring_topology(2)


# -- WAN topologies -------------------------------------------------------------

@pytest.mark.parametrize(
    "builder,n,m",
    [
        (b4_topology, 12, 19),
        (internet2_topology, 16, 26),
        (attmpls_topology, 25, 56),
        (chinanet_topology, 38, 62),
    ],
)
def test_wan_node_edge_counts_match_paper(builder, n, m):
    topo = builder()
    assert topo.num_nodes() == n
    assert topo.num_edges() == m


@pytest.mark.parametrize(
    "builder", [b4_topology, internet2_topology, attmpls_topology, chinanet_topology]
)
def test_wan_connected_with_positive_latencies(builder):
    topo = builder()
    assert topo.is_connected()
    assert all(e.latency_ms > 0 for e in topo.edges)


def test_b4_transatlantic_latency_is_wan_scale():
    topo = b4_topology()
    # Lenoir NC <-> Dublin is ~6000 km -> ~30 ms one-way.
    assert 25.0 < topo.latency("lenoir-nc", "dublin-ie") < 40.0


def test_internet2_short_hop_is_small():
    topo = internet2_topology()
    assert topo.latency("washington", "newyork") < 3.0


# -- fat-tree -----------------------------------------------------------------------

def test_fattree_k4_sizes():
    topo = fattree_topology(4)
    # k=4: 4 cores, 8 agg, 8 edge = 20 switches; 8*2 pod links + 8*2
    # core links... each pod: 2 edge * 2 agg = 4 links -> 16; each pod's
    # 2 agg * 2 cores = 4 -> 16; total 32 edges.
    assert topo.num_nodes() == 20
    assert topo.num_edges() == 32


def test_fattree_edge_switch_listing():
    topo = fattree_topology(4)
    edges = [name for name in topo.nodes if name.startswith("edge")]
    assert len(edges) == 8
    assert all(name.startswith("edge") for name in edges)


def test_fattree_odd_k_rejected():
    with pytest.raises(ValueError):
        fattree_topology(3)


def test_fattree_diameter_edge_to_edge():
    topo = fattree_topology(4)
    path = topo.shortest_path("edge0_0", "edge3_1")
    # edge -> agg -> core -> agg -> edge
    assert len(path) == 5


# -- Topology class behaviour ----------------------------------------------------------

def test_self_loop_rejected():
    topo = Topology("t")
    topo.add_node("a")
    with pytest.raises(ValueError):
        topo.add_edge("a", "a", latency_ms=1.0)


def test_edge_without_latency_or_coords_rejected():
    topo = Topology("t")
    topo.add_node("a")
    topo.add_node("b")
    with pytest.raises(ValueError):
        topo.add_edge("a", "b")


def test_disconnected_validation_fails():
    topo = Topology("t")
    topo.add_node("a")
    topo.add_node("b")
    with pytest.raises(ValueError):
        topo.validate()


def test_centroid_controller_minimises_worst_case_latency():
    topo = line_topology(5)
    centroid = topo.place_controller_at_centroid()
    assert centroid == "n2"


def test_centroid_deterministic_tie_break():
    topo = ring_topology(4)
    assert topo.place_controller_at_centroid() == "n0"


def test_control_latency_shortest_path():
    topo = line_topology(5, latency_ms=2.0)
    topo.set_controller("n0")
    assert topo.control_latency("n4") == pytest.approx(8.0)
    assert topo.control_latency("n0") == pytest.approx(0.05)


def test_control_latency_without_controller_raises():
    topo = line_topology(3)
    with pytest.raises(ValueError):
        topo.control_latency("n1")


def test_path_latency_sums_edges():
    topo = line_topology(4, latency_ms=3.0)
    assert topo.path_latency(["n0", "n1", "n2"]) == pytest.approx(6.0)


def test_wan_centroids_are_central_nodes():
    for builder in (b4_topology, internet2_topology):
        topo = builder()
        centroid = topo.place_controller_at_centroid()
        graph = shared_graph(topo)
        lengths = nx.single_source_dijkstra_path_length(graph, centroid, weight="latency_ms")
        # Worst-case latency from the centroid must be no worse than
        # from any other node.
        worst_centroid = max(lengths.values())
        for other in topo.nodes:
            other_lengths = nx.single_source_dijkstra_path_length(
                graph, other, weight="latency_ms"
            )
            assert worst_centroid <= max(other_lengths.values()) + 1e-9


# -- the name registry ------------------------------------------------------


def test_one_topology_registry_serves_every_spec_format():
    """Every spec format resolves names in ``repro.topo.TOPOLOGIES``;
    the chaos runner's historical name is the same mapping object (the
    perf ledger imports it), not a copy that could drift."""
    from repro.chaos.runner import TOPOLOGIES as chaos_topologies
    from repro.harness.spec import build_topology
    from repro.serve.spec import ServeSpec
    from repro.topo import TOPOLOGIES

    assert chaos_topologies is TOPOLOGIES
    assert list(TOPOLOGIES) == [
        "fig1", "fig2", "six_node", "b4", "internet2", "attmpls",
        "chinanet", "fattree4",
    ]
    for name, factory in TOPOLOGIES.items():
        topo = factory()
        assert isinstance(topo, Topology) and topo.nodes
        assert sorted(build_topology({"name": name}).nodes) == sorted(topo.nodes)
        assert ServeSpec(name="s", topology=name).topology == name
