"""Property-based tests for traffic generation and path computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topo.synthetic import ring_topology
from repro.traffic.flows import Flow, FlowSet, flow_hash
from repro.traffic.gravity import gravity_flow_sizes, gravity_matrix


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=12))
@settings(max_examples=50, deadline=None)
def test_gravity_matrix_is_symmetric_in_structure(seed, n):
    """Every ordered pair gets positive traffic; T_ij * T_ji relate via
    the same weights (T_ij == T_ji for the symmetric gravity model)."""
    rng = np.random.default_rng(seed)
    nodes = [f"n{i}" for i in range(n)]
    matrix = gravity_matrix(nodes, rng, total_traffic=10.0)
    for i in nodes:
        for j in nodes:
            if i == j:
                continue
            assert matrix[(i, j)] > 0
            assert matrix[(i, j)] == pytest.approx(matrix[(j, i)])


@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_gravity_sizes_nonnegative_with_requested_mean(seed):
    rng = np.random.default_rng(seed)
    pairs = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]
    sizes = gravity_flow_sizes(pairs, rng, mean_size=2.0)
    assert all(s >= 0 for s in sizes)
    assert np.mean(sizes) == pytest.approx(2.0)


@given(
    st.integers(min_value=4, max_value=12),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=50, deadline=None)
def test_k_shortest_paths_sorted_simple_and_distinct(n, k):
    topo = ring_topology(n, latency_ms=1.0)
    paths = topo.k_shortest_paths("n0", f"n{n // 2}", k)
    assert 1 <= len(paths) <= k
    latencies = [topo.path_latency(p) for p in paths]
    assert latencies == sorted(latencies)
    for path in paths:
        assert len(set(path)) == len(path), "paths must be simple"
    assert len({tuple(p) for p in paths}) == len(paths), "paths distinct"


@given(st.text(min_size=1, max_size=8), st.text(min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_flow_hash_in_range(src, dst):
    assert 0 <= flow_hash(src, dst) < (1 << 16)
    assert 0 <= flow_hash(src, dst, space=97) < 97


@given(st.lists(
    st.tuples(st.sampled_from("abcdef"), st.sampled_from("abcdef"), st.floats(0.1, 5.0)),
    min_size=1, max_size=10,
))
@settings(max_examples=100, deadline=None)
def test_flowset_directed_load_bounded_by_undirected(entries):
    flows = FlowSet()
    for src, dst, size in entries:
        if src == dst:
            continue
        flow = Flow(
            flow_id=len(flows._flows) + 1, src=src, dst=dst, size=size,
            old_path=[src, dst],
        )
        flows.add(flow)
    undirected = flows.link_load("old", directed=False)
    directed = flows.link_load("old", directed=True)
    for (a, b), load in directed.items():
        assert load <= undirected[frozenset((a, b))] + 1e-9
