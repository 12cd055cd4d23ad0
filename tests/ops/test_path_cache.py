"""The revision-keyed shortest-path cache on Topology."""

import pytest

from repro.topo.graph import Topology
from repro.topo.paths import NoPathError


def _square():
    # a—b—d and a—c—d, with the b-route cheaper.
    return Topology.from_edges(
        "square",
        [("a", "b", 1.0), ("b", "d", 1.0), ("a", "c", 5.0), ("c", "d", 5.0)],
    )


def test_repeat_lookup_hits_cache():
    topo = _square()
    first = topo.shortest_path("a", "d")
    second = topo.shortest_path("a", "d")
    assert first == second == ["a", "b", "d"]
    stats = topo.path_cache_stats()
    assert stats == {"hits": 1, "misses": 1, "hit_rate": 0.5}


def test_cached_path_is_a_copy():
    topo = _square()
    path = topo.shortest_path("a", "d")
    path.append("tampered")
    assert topo.shortest_path("a", "d") == ["a", "b", "d"]


def test_structural_mutation_invalidates():
    topo = _square()
    assert topo.shortest_path("a", "d") == ["a", "b", "d"]
    revision = topo.revision
    # A new cheap edge changes the answer; the cache must not serve
    # the stale path.
    topo.add_edge("a", "d", latency_ms=0.5)
    assert topo.revision > revision
    assert topo.shortest_path("a", "d") == ["a", "d"]
    assert topo.path_cache_stats()["hits"] == 0


def test_direct_graph_mutation_needs_explicit_invalidation():
    topo = _square()
    assert topo.shortest_path("a", "d") == ["a", "b", "d"]
    # Surgery on .adj bypasses add_edge, so it must invalidate.
    del topo.adj["a"]["b"], topo.adj["b"]["a"]
    topo.invalidate_path_cache()
    assert topo.shortest_path("a", "d") == ["a", "c", "d"]


def test_avoiding_paths_cached_per_avoid_set():
    topo = _square()
    assert topo.shortest_path_avoiding("a", "d", frozenset({"b"})) == [
        "a", "c", "d"
    ]
    assert topo.shortest_path_avoiding("a", "d", frozenset({"b"})) == [
        "a", "c", "d"
    ]
    # Distinct avoid sets are distinct cache keys, not collisions.
    assert topo.shortest_path_avoiding("a", "d", frozenset({"c"})) == [
        "a", "b", "d"
    ]
    stats = topo.path_cache_stats()
    assert stats["hits"] == 1 and stats["misses"] == 2


def test_avoiding_endpoint_raises_no_path():
    topo = _square()
    with pytest.raises(NoPathError):
        topo.shortest_path_avoiding("a", "d", frozenset({"a"}))


def test_avoidance_disconnection_raises_no_path():
    topo = _square()
    with pytest.raises(NoPathError):
        topo.shortest_path_avoiding("a", "d", frozenset({"b", "c"}))


def test_empty_avoid_set_shares_plain_cache():
    topo = _square()
    topo.shortest_path("a", "d")
    assert topo.shortest_path_avoiding("a", "d", frozenset()) == ["a", "b", "d"]
    assert topo.path_cache_stats()["hits"] == 1
