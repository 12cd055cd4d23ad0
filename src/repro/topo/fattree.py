"""k-ary fat-tree datacenter topology (Al-Fares et al.).

Used for the Fig. 7b multiple-flow scenario with K=4.  A k-ary
fat-tree has (k/2)^2 core switches, k pods of k/2 aggregation plus
k/2 edge switches each; every edge switch connects to every
aggregation switch in its pod, and each aggregation switch connects
to k/2 cores.

Flows are routed between edge switches (hosts are abstracted away:
the paper measures switch updates, not end-host traffic).
"""

from __future__ import annotations

from repro.topo.graph import Topology


def fattree_topology(
    k: int = 4,
    link_latency_ms: float = 0.05,
    capacity: float = 100.0,
) -> Topology:
    """Build a k-ary fat-tree.  ``k`` must be even and >= 2."""
    if k < 2 or k % 2:
        raise ValueError("fat-tree arity k must be even and >= 2")
    half = k // 2
    topo = Topology(f"fattree{k}")

    cores = [f"core{i}" for i in range(half * half)]
    for core in cores:
        topo.add_node(core)
    for pod in range(k):
        for i in range(half):
            topo.add_node(f"agg{pod}_{i}")
            topo.add_node(f"edge{pod}_{i}")
    # pod-internal full bipartite edge<->agg
    for pod in range(k):
        for e in range(half):
            for a in range(half):
                topo.add_edge(
                    f"edge{pod}_{e}", f"agg{pod}_{a}",
                    latency_ms=link_latency_ms, capacity=capacity,
                )
    # agg<->core: aggregation switch i in each pod connects to cores
    # [i*half, (i+1)*half)
    for pod in range(k):
        for a in range(half):
            for c in range(half):
                core_index = a * half + c
                topo.add_edge(
                    f"agg{pod}_{a}", cores[core_index],
                    latency_ms=link_latency_ms, capacity=capacity,
                )
    topo.validate()
    return topo
