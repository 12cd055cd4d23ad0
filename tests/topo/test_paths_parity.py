"""``repro.topo.paths`` answers what networkx answers, tie for tie.

networkx is the oracle here and nowhere else: each case wraps the
topology's own adjacency dicts in an ``nx.Graph`` (no copy), so both
sides search one structure in one neighbour order.  Ties decide paths
on fat-trees, rings and the integer-latency random graphs, so every
comparison is of exact lists and exact floats.
"""

import random
from itertools import islice, permutations
from types import SimpleNamespace

import networkx as nx
import pytest

from repro.core.controller import P4UpdateController
from repro.topo import TOPOLOGIES
from repro.topo.graph import Topology
from repro.topo.paths import (
    NoPathError,
    bidirectional_dijkstra,
    components,
    dijkstra_lengths,
    shortest_simple_paths,
)

W = "latency_ms"
RANDOM_GRAPHS = 320


def shared_graph(topo: Topology) -> nx.Graph:
    """An ``nx.Graph`` over ``topo``'s own adjacency dicts."""
    graph = nx.Graph()
    graph._node = {node: {} for node in topo.adj}
    graph._adj = topo.adj
    return graph


def random_graph(seed: int) -> tuple[list[str], list[tuple[str, str, float]]]:
    """7-11 nodes and edges with integer latencies 1-3 (tie-heavy), in
    shuffled order; some graphs are disconnected."""
    rng = random.Random(seed)
    nodes = [f"v{i}" for i in range(rng.randint(7, 11))]
    pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    rng.shuffle(pairs)
    edges = [
        (a, b, float(rng.randint(1, 3))) if rng.random() < 0.5 else (b, a, float(rng.randint(1, 3)))
        for a, b in pairs
        if rng.random() < 0.3
    ]
    return nodes, edges


def random_topology(seed: int) -> Topology:
    nodes, edges = random_graph(seed)
    topo = Topology(f"random{seed}")
    for node in nodes:
        topo.add_node(node)
    for a, b, latency in edges:
        topo.add_edge(a, b, latency_ms=latency)
    return topo


def outcome(search):
    """A search's path, or ``None`` when it finds none."""
    try:
        return search()
    except (NoPathError, nx.NetworkXNoPath):
        return None


def assert_parity(
    topo: Topology, rng: random.Random, sampled: int, reroute_every_pair: bool
) -> None:
    """Lengths and plain paths for every connected pair; avoid sets and
    Yen's for ``sampled`` of them; reroutes for every pair or those."""
    adj, graph = topo.adj, shared_graph(topo)
    plain = {
        (a, b): outcome(lambda: nx.shortest_path(graph, a, b, weight=W))
        for a, b in permutations(adj, 2)
    }
    connected = [pair for pair, path in plain.items() if path is not None]
    sample = rng.sample(connected, min(sampled, len(connected)))

    # Single-source lengths: values and the order they were settled in.
    for source in adj:
        ours = dijkstra_lengths(adj, source)
        assert list(ours.items()) == list(
            nx.single_source_dijkstra_path_length(graph, source, weight=W).items()
        )

    # Plain shortest paths for every connected pair; their lengths.
    for a, b in connected:
        assert topo.shortest_path(a, b) == plain[a, b]
    for a, b in sample:
        length, path = bidirectional_dijkstra(adj, a, b)
        assert (length, path) == nx.bidirectional_dijkstra(graph, a, b, weight=W)
        expected = nx.shortest_path_length(graph, a, b, weight=W)
        assert topo.control_latency(b, controller=a) == expected

    # Each single-node avoid set.
    for a, b in sample:
        for node in adj:
            if node in (a, b):
                continue
            view = nx.restricted_view(graph, [node], [])
            assert outcome(
                lambda: topo.shortest_path_avoiding(a, b, frozenset({node}))
            ) == outcome(lambda: nx.shortest_path(view, a, b, weight=W))

    # The controller's reroute graph: everything minus one failed edge,
    # in the order networkx's copy re-adds it; searched for each pair
    # whose path the failure cuts.
    cut_by: dict[frozenset, list] = {}
    for a, b in connected if reroute_every_pair else sample:
        path = plain[a, b]
        for hop in zip(path, path[1:]):
            cut_by.setdefault(frozenset(hop), []).append((a, b))
    for edge in topo.edges:
        failed = frozenset((edge.a, edge.b))
        working = P4UpdateController._working_graph(
            SimpleNamespace(topology=topo, failed_edges={failed})
        )
        reference = graph.copy()
        reference.remove_edge(edge.a, edge.b)
        assert [list(peers) for peers in working.values()] == [
            list(reference.adj[node]) for node in reference
        ]
        for a, b in cut_by.get(failed, ()):
            assert outcome(lambda: bidirectional_dijkstra(working, a, b)[1]) == outcome(
                lambda: nx.shortest_path(reference, a, b, weight=W)
            )

    # Yen's first four, on the whole graph and on an allowed subset.
    for a, b in sample:
        assert list(islice(shortest_simple_paths(adj, a, b), 4)) == list(
            islice(nx.shortest_simple_paths(graph, a, b, weight=W), 4)
        )
        allowed = {n for n in adj if n in (a, b) or rng.random() < 0.7}
        ignore = set(adj) - allowed
        assert outcome(
            lambda: list(islice(shortest_simple_paths(adj, a, b, ignore), 4))
        ) == outcome(
            lambda: list(
                islice(nx.shortest_simple_paths(graph.subgraph(allowed), a, b, weight=W), 4)
            )
        )

    # Components, in order of their first node.
    assert list(components(adj)) == list(nx.connected_components(graph))
    assert topo.is_connected() == (bool(adj) and nx.is_connected(graph))


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_registry_topologies_match_networkx(name):
    assert_parity(TOPOLOGIES[name](), random.Random(name), sampled=12, reroute_every_pair=True)


def test_random_tie_heavy_graphs_match_networkx():
    disconnected = 0
    for seed in range(RANDOM_GRAPHS):
        topo = random_topology(seed)
        disconnected += not topo.is_connected()
        assert_parity(topo, random.Random(seed), sampled=3, reroute_every_pair=False)
    assert disconnected > RANDOM_GRAPHS // 20


def test_adjacency_has_networkx_layout():
    """Same insertion sequence, same neighbour order, edge order and
    one shared data dict per edge — the layout the ports rely on."""
    for seed in range(40):
        nodes, edges = random_graph(seed)
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        for a, b, latency in edges:
            graph.add_edge(a, b, latency_ms=latency)
        topo = random_topology(seed)
        assert [list(peers) for peers in topo.adj.values()] == [
            list(graph.adj[node]) for node in graph
        ]
        assert [(e.a, e.b) for e in topo.edges] == list(graph.edges)
        for a, peers in topo.adj.items():
            for b, data in peers.items():
                assert topo.adj[b][a] is data


def test_unknown_and_excluded_endpoints_raise_one_error():
    topo = TOPOLOGIES["b4"]()
    a, b = topo.nodes[:2]
    with pytest.raises(NoPathError):
        bidirectional_dijkstra(topo.adj, a, "ghost")
    with pytest.raises(NoPathError):
        bidirectional_dijkstra(topo.adj, a, b, ignore_nodes={b})
    with pytest.raises(NoPathError):
        dijkstra_lengths(topo.adj, "ghost")
    search = shortest_simple_paths(topo.adj, "ghost", b)      # lazy, like networkx
    with pytest.raises(NoPathError):
        next(search)
