"""The process-wide, structure-keyed memo behind every pure
``Topology`` query.

What it must never do is change an answer: every memoised query is
compared with networkx, the oracle ``repro.topo.paths`` ports, over a
graph that shares the topology's adjacency, cold and warm, on every
registry topology and every ordered pair.  What it must do is share: a
second instance of the same structure runs no search, while its own
``path_cache_stats()`` still read as in a cold process.
"""

import copy
from itertools import islice, permutations

import networkx as nx
import pytest

from repro.topo import TOPOLOGIES, fattree_topology, line_topology, ring_topology
from repro.topo import graph as graph_module
from repro.topo import paths
from repro.topo.graph import Topology
from repro.topo.paths import NoPathError
from repro.traffic.paths import k_shortest_paths, second_shortest_path
from tests.topo.test_paths_parity import shared_graph

WEIGHT = "latency_ms"
MEMO = graph_module._STRUCTURE_MEMO
SEARCHES = ("bidirectional_dijkstra", "shortest_simple_paths", "dijkstra_lengths")


@pytest.fixture(autouse=True)
def cold_memo():
    MEMO.clear()
    yield
    MEMO.clear()


@pytest.fixture
def search_calls(monkeypatch):
    """Calls made to each ``repro.topo.paths`` search the memo stands in
    front of (Yen's spur searches count as bidirectional ones)."""
    calls = dict.fromkeys(SEARCHES, 0)

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in SEARCHES:
        monkeypatch.setattr(paths, name, counted(name, getattr(paths, name)))
    return calls


def _reference(topo):
    """What networkx answers on ``topo``'s adjacency."""
    graph = shared_graph(topo)
    lengths = dict(nx.all_pairs_dijkstra_path_length(graph, weight=WEIGHT))
    return {
        "centroid": min(graph.nodes, key=lambda n: (max(lengths[n].values()), n)),
        "pairs": {
            (a, b): (
                list(islice(nx.shortest_simple_paths(graph, a, b, weight=WEIGHT), 3)),
                nx.shortest_path(graph, a, b, weight=WEIGHT),
                nx.shortest_path_length(graph, a, b, weight=WEIGHT),
            )
            for a, b in permutations(graph.nodes, 2)
        },
    }


def _assert_answers(topo, expected):
    assert topo.place_controller_at_centroid() == expected["centroid"]
    assert topo.controller == expected["centroid"]
    for (a, b), (k_paths, path, length) in expected["pairs"].items():
        for k in (1, 2, 3):          # ascending: each k outgrows the entry
            assert k_shortest_paths(topo, a, b, k) == k_paths[:k]
        assert topo.shortest_path(a, b) == path
        assert topo.control_latency(b, controller=a) == length


@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_every_query_equals_networkx_cold_and_warm(name, search_calls):
    expected = _reference(TOPOLOGIES[name]())
    _assert_answers(TOPOLOGIES[name](), expected)      # cold memo
    search_calls.update(dict.fromkeys(SEARCHES, 0))
    _assert_answers(TOPOLOGIES[name](), expected)      # warm memo
    assert search_calls == dict.fromkeys(SEARCHES, 0)
    assert len(MEMO) == 1


def _reinserted(topo, name):
    """Same nodes, same edges, same latencies — edges added backwards."""
    edges = [(e.a, e.b, e.latency_ms) for e in topo.edges]
    return Topology.from_edges(name, list(reversed(edges)))


@pytest.mark.parametrize(
    "factory", [lambda: fattree_topology(4), lambda: ring_topology(6)],
    ids=["fattree4", "ring6"],
)
def test_insertion_order_is_part_of_the_key(factory):
    """The searches break latency ties in adjacency order, so two graphs
    with one edge set can disagree; each must get *its* answers."""
    forward, backward = factory(), _reinserted(factory(), "backward")
    assert {frozenset((e.a, e.b)) for e in forward.edges} == {
        frozenset((e.a, e.b)) for e in backward.edges
    }
    expected_forward = _reference(factory())
    expected_backward = _reference(_reinserted(factory(), "backward"))
    assert expected_forward["pairs"] != expected_backward["pairs"]
    # Interleave the two so each fills the memo the other could misread.
    _assert_answers(forward, expected_forward)
    _assert_answers(backward, expected_backward)
    _assert_answers(factory(), expected_forward)
    assert len(MEMO) == 2


def test_a_larger_k_recomputes_and_a_smaller_k_is_served(search_calls):
    topo = TOPOLOGIES["b4"]()
    a, b = sorted(topo.nodes)[:2]
    assert len(k_shortest_paths(topo, a, b, 1)) == 1
    three = k_shortest_paths(topo, a, b, 3)
    assert len(three) == 3 and search_calls["shortest_simple_paths"] == 2
    assert k_shortest_paths(TOPOLOGIES["b4"](), a, b, 2) == three[:2]
    assert second_shortest_path(topo, a, b) == three[1]
    assert search_calls["shortest_simple_paths"] == 2


def test_an_exhausted_pair_is_never_searched_again(search_calls):
    ring = ring_topology(6)                   # two loopless paths per pair
    assert len(k_shortest_paths(ring, "n0", "n3", 3)) == 2
    assert len(k_shortest_paths(ring, "n0", "n3", 12)) == 2
    assert search_calls["shortest_simple_paths"] == 1
    with pytest.raises(ValueError):
        k_shortest_paths(ring, "n0", "n3", -1)


def test_mutating_an_answer_never_changes_a_later_one():
    topo = TOPOLOGIES["b4"]()
    a, b = min(topo.nodes), max(topo.nodes)
    avoid = frozenset({topo.shortest_path(a, b)[1]})
    queries = (
        lambda t: t.shortest_path(a, b),
        lambda t: t.shortest_path_avoiding(a, b, avoid),
        lambda t: k_shortest_paths(t, a, b, 3),
    )
    for query in queries:
        first = query(topo)
        pristine = copy.deepcopy(first)
        first.append("tampered")
        if isinstance(first[0], list):
            first[0].append("tampered")
        assert query(topo) == pristine                  # same instance
        assert query(TOPOLOGIES["b4"]()) == pristine    # through the memo


def test_mutation_rekeys_one_instance_and_spares_the_other():
    def square():
        return Topology.from_edges(
            "square",
            [("a", "b", 1.0), ("b", "d", 1.0), ("a", "c", 5.0), ("c", "d", 5.0)],
        )

    mutated, untouched = square(), square()
    assert mutated.shortest_path("a", "d") == ["a", "b", "d"]
    assert len(MEMO) == 1
    mutated.add_edge("a", "d", latency_ms=0.5)
    assert mutated.shortest_path("a", "d") == ["a", "d"]
    assert untouched.shortest_path("a", "d") == ["a", "b", "d"]
    assert len(MEMO) == 2
    # Direct adjacency surgery needs the explicit invalidation, as before.
    for a, b in (("a", "d"), ("a", "b")):
        del mutated.adj[a][b], mutated.adj[b][a]
    mutated.invalidate_path_cache()
    assert mutated.shortest_path("a", "d") == ["a", "c", "d"]
    assert square().shortest_path("a", "d") == ["a", "b", "d"]
    assert len(MEMO) == 3


def test_latency_is_in_the_key_and_capacity_is_not():
    edges = [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]
    thin = Topology.from_edges("thin", edges, default_latency_ms=1.0, capacity=1.0)
    wide = Topology.from_edges("wide", edges, default_latency_ms=1.0, capacity=9.0)
    slow = Topology.from_edges("slow", edges, default_latency_ms=2.0)
    assert thin.control_latency("d", controller="a") == 2.0
    assert wide.control_latency("d", controller="a") == 2.0
    assert len(MEMO) == 1
    assert slow.control_latency("d", controller="a") == 4.0
    assert len(MEMO) == 2


def test_second_instance_searches_nothing_but_counts_like_a_cold_one(search_calls):
    def session(topo):
        nodes = sorted(topo.nodes)
        topo.place_controller_at_centroid()
        for a, b in zip(nodes, nodes[1:]):
            second_shortest_path(topo, a, b)
            topo.shortest_path(a, b)
            topo.shortest_path(a, b)
            topo.control_latency(b)
        topo.shortest_path_avoiding(nodes[0], nodes[1], frozenset({nodes[5]}))
        return topo.path_cache_stats()

    cold_stats = session(TOPOLOGIES["chinanet"]())
    assert search_calls["shortest_simple_paths"] == 37
    search_calls.update(dict.fromkeys(SEARCHES, 0))
    warm_stats = session(TOPOLOGIES["chinanet"]())
    assert search_calls == dict.fromkeys(SEARCHES, 0)
    assert warm_stats == cold_stats == {
        "hits": 37, "misses": 38, "hit_rate": 37 / 75,
    }


def test_failures_are_raised_again_not_remembered(search_calls):
    topo = line_topology(4)
    for _ in range(2):
        with pytest.raises(NoPathError):
            topo.shortest_path_avoiding("n0", "n3", frozenset({"n1"}))
        with pytest.raises(NoPathError):
            topo.shortest_path("n0", "ghost")
        with pytest.raises(NoPathError):
            topo.control_latency("n0", controller="ghost")
        with pytest.raises(NoPathError):
            k_shortest_paths(topo, "n0", "ghost", 2)
    assert search_calls["bidirectional_dijkstra"] == 4
    assert search_calls["dijkstra_lengths"] == search_calls["shortest_simple_paths"] == 2
    assert MEMO == {next(iter(MEMO)): {}}


@pytest.mark.parametrize("name", ["b4", "fattree4"])   # constant / run-time-built names
def test_pickle_carries_this_instance_only_and_no_process_history(name):
    factory = TOPOLOGIES[name]
    pairs = list(permutations(sorted(factory().nodes), 2))
    (a, b), other = pairs[0], pairs[-1]

    def used(topo):
        answers = (
            topo.place_controller_at_centroid(),
            topo.shortest_path(a, b),
            second_shortest_path(topo, a, b),
            topo.shortest_path_avoiding(*other, frozenset({a})),
            k_shortest_paths(topo, *other, 2),
            topo.control_latency(b),
        )
        return answers, topo.path_cache_stats()

    cold = used(factory())
    # A process that has queried much more of the same structure ...
    busy = factory()
    for pair in pairs:
        busy.shortest_path(*pair)
        k_shortest_paths(busy, *pair, 2)
        busy.control_latency(pair[1], controller=pair[0])
    busy.shortest_path_avoiding(*other, frozenset({a}))
    # ... answers an equally used instance as a cold one did, and
    # counts that instance's path cache as a cold process would.
    assert used(factory()) == cold
    assert cold[0][0] == busy.place_controller_at_centroid()


def test_the_memo_holds_a_constant_number_of_structures_fifo():
    bound = graph_module._STRUCTURE_MEMO_BOUND
    lines = [line_topology(n) for n in range(2, bound + 4)]
    for topo in lines:
        assert topo.shortest_path("n0", "n1") == ["n0", "n1"]
        assert len(MEMO) <= bound
    kept = list(MEMO)
    assert len(kept) == bound
    # The oldest went, in insertion order, and nothing else.
    assert [len(structure) for structure in kept] == list(range(4, bound + 4))
    # An evicted structure is recomputed, never answered wrongly.
    assert line_topology(2).shortest_path("n0", "n1") == ["n0", "n1"]
    assert [len(structure) for structure in MEMO] == [*range(5, bound + 4), 2]

