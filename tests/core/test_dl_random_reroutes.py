"""Property tests: DL-P4Update on randomly constructed segmented
reroutes over random connected topologies.

This generalises the Fig. 1 walk-through: random graphs, random
Fig.-1-style reroutes (built by the scenario generator), random
timing — the update must stay consistent at every instant and
converge, and DL must never lose to itself across modes.
"""

import networkx as nx
import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.messages import UpdateType
from repro.core.segmentation import compute_segments
from repro.harness.build import build_p4update_network
from repro.harness.scenarios import fig1_style_reroute
from repro.params import DelayDistribution, SimParams
from repro.topo.graph import Topology
from repro.traffic.flows import Flow


def random_topology(seed: int, n: int) -> Topology:
    """Connected random graph with enough redundancy for reroutes."""
    rng = np.random.default_rng(seed)
    graph = nx.connected_watts_strogatz_graph(
        n, k=4, p=0.4, seed=int(rng.integers(0, 2**31))
    )
    topo = Topology(f"rand{seed}")
    for node in graph.nodes:
        topo.add_node(f"r{node}")
    for a, b in graph.edges:
        topo.add_edge(f"r{a}", f"r{b}", latency_ms=float(rng.uniform(1.0, 5.0)))
    topo.validate()
    return topo


def reroute_case(seed: int, n: int):
    """(topo, old, new) with a Fig.-1-style segmented reroute, or None."""
    topo = random_topology(seed, n)
    rng = np.random.default_rng(seed ^ 0xD1CE)
    nodes = sorted(topo.nodes)
    for _ in range(12):
        src, dst = rng.choice(nodes, size=2, replace=False)
        old = topo.shortest_path(str(src), str(dst))
        if len(old) < 4:
            continue
        new = fig1_style_reroute(topo, old)
        if new is not None:
            return topo, old, new
    return None


@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=8, max_value=14),
    st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
def test_dl_on_random_segmented_reroutes(topo_seed, n, sim_seed):
    case = reroute_case(topo_seed, n)
    if case is None:
        return                      # no reroute available on this graph
    topo, old, new = case
    params = SimParams(
        seed=sim_seed,
        pipeline_delay=DelayDistribution.constant(0.1),
        rule_install_delay=DelayDistribution.exponential(10.0),
        controller_service=DelayDistribution.constant(0.3),
        controller_background_util=0.0,
        unm_generation_delay=DelayDistribution.exponential(1.0),
    )
    dep = build_p4update_network(topo, params=params)
    flow = Flow.between(old[0], old[-1], size=1.0, old_path=old)
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, new, UpdateType.DUAL)
    dep.run(until=30_000.0)
    assert dep.checker.ok, (dep.checker.violations[:3], old, new)
    assert dep.controller.update_complete(flow.flow_id), (old, new)
    walk, outcome = dep.forwarding_state.walk(flow.flow_id)
    assert outcome == "delivered" and walk == new


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_auto_strategy_matches_segment_structure(seed):
    """The §7.5 strategy must pick DL whenever the constructed reroute
    has a backward segment."""
    from repro.core.strategy import choose_update_type

    case = reroute_case(seed, 10)
    if case is None:
        return
    _, old, new = case
    segments = compute_segments(old, new)
    if any(not s.forward for s in segments):
        assert choose_update_type(old, new) is UpdateType.DUAL
