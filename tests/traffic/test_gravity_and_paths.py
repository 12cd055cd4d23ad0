"""Unit tests for the gravity model and path helpers."""

import numpy as np
import pytest

from repro.topo.synthetic import fig1_topology, line_topology, ring_topology
from repro.traffic.gravity import gravity_flow_sizes, gravity_matrix
from repro.traffic.paths import second_shortest_path


def test_gravity_matrix_shape_and_positivity():
    rng = np.random.default_rng(1)
    nodes = ["a", "b", "c", "d"]
    matrix = gravity_matrix(nodes, rng, total_traffic=10.0)
    assert len(matrix) == 12  # n*(n-1) ordered pairs
    assert all(v > 0 for v in matrix.values())
    assert ("a", "a") not in matrix


def test_gravity_matrix_total_bounded():
    rng = np.random.default_rng(2)
    matrix = gravity_matrix(["a", "b", "c"], rng, total_traffic=5.0)
    assert sum(matrix.values()) <= 5.0 + 1e-9


def test_gravity_matrix_needs_two_nodes():
    with pytest.raises(ValueError):
        gravity_matrix(["solo"], np.random.default_rng(0))


def test_gravity_matrix_seed_determinism():
    nodes = ["a", "b", "c"]
    m1 = gravity_matrix(nodes, np.random.default_rng(7))
    m2 = gravity_matrix(nodes, np.random.default_rng(7))
    assert m1 == m2


def test_gravity_flow_sizes_mean():
    rng = np.random.default_rng(3)
    pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]
    sizes = gravity_flow_sizes(pairs, rng, mean_size=4.0)
    assert len(sizes) == 4
    assert np.mean(sizes) == pytest.approx(4.0)
    assert all(s >= 0 for s in sizes)


def test_gravity_flow_sizes_empty():
    assert gravity_flow_sizes([], np.random.default_rng(0)) == []


def test_gravity_flow_sizes_seed_determinism():
    pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]
    s1 = gravity_flow_sizes(pairs, np.random.default_rng(11), mean_size=2.0)
    s2 = gravity_flow_sizes(pairs, np.random.default_rng(11), mean_size=2.0)
    assert s1 == s2


def test_gravity_flow_sizes_pair_order_independent():
    # Node weights are drawn over the *sorted* node set, so the size of
    # a given (src, dst) pair must not depend on where it sits in the
    # input list — permuting the pairs permutes the output identically.
    pairs = [("d", "a"), ("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]
    forward = gravity_flow_sizes(pairs, np.random.default_rng(5))
    shuffled = list(reversed(pairs))
    backward = gravity_flow_sizes(shuffled, np.random.default_rng(5))
    by_pair_fwd = dict(zip(pairs, forward))
    by_pair_bwd = dict(zip(shuffled, backward))
    assert by_pair_fwd == pytest.approx(by_pair_bwd)


def test_gravity_matrix_node_order_changes_assignment_not_support():
    # gravity_matrix keys follow the caller's node order; callers that
    # need order independence sort first (as gravity_flow_sizes does).
    m1 = gravity_matrix(["a", "b", "c"], np.random.default_rng(9))
    m2 = gravity_matrix(["c", "b", "a"], np.random.default_rng(9))
    assert set(m1) == set(m2)
    assert sum(m1.values()) == pytest.approx(sum(m2.values()))


def test_k_shortest_on_ring_gives_both_directions():
    topo = ring_topology(6)
    paths = topo.k_shortest_paths("n0", "n3", 2)
    assert len(paths) == 2
    assert paths[0] != paths[1]
    assert all(p[0] == "n0" and p[-1] == "n3" for p in paths)


def test_second_shortest_none_on_line():
    topo = line_topology(4)
    assert second_shortest_path(topo, "n0", "n3") is None


def test_second_shortest_is_longer_or_equal():
    topo = fig1_topology()
    first = topo.shortest_path("v0", "v7")
    second = second_shortest_path(topo, "v0", "v7")
    assert second is not None
    assert topo.path_latency(second) >= topo.path_latency(first)


def test_k_shortest_same_node_rejected():
    topo = ring_topology(4)
    with pytest.raises(ValueError, match="src and dst must differ"):
        topo.k_shortest_paths("n0", "n0", 2)
