"""Scenario builders for the paper's evaluation (§9.1).

* **single-flow**: old and new paths "intentionally selected to
  traverse a long distance within the topology and to trigger
  segmentation" — we search for an endpoint pair whose 2nd..k-th
  shortest path shares nodes with the shortest path in an order that
  produces at least one backward segment;
* **multiple-flow**: every node picks another node uniformly at random
  as destination, old = shortest path, new = 2nd-shortest path, flow
  sizes from the gravity model scaled close to network capacity;
* **inconsistent-update** (Fig. 2) and **fast-forward** (Fig. 4)
  adversarial scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

import numpy as np

from repro.core.segmentation import compute_segments
from repro.topo.graph import Topology
from repro.topo.paths import NoPathError, shortest_simple_paths
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
from repro.traffic.flows import Flow, FlowSet, flow_hash
from repro.traffic.gravity import gravity_flow_sizes
from repro.traffic.paths import k_shortest_paths, second_shortest_path


@dataclass
class UpdateScenario:
    """One experiment's workload: flows with old and new paths."""

    topology: Topology
    flows: list[Flow]
    description: str = ""

    def flow_ids(self) -> list[int]:
        return [f.flow_id for f in self.flows]


# -- single flow (Fig. 7 left column) --------------------------------------------


def _has_backward_segment(old_path: list[str], new_path: list[str]) -> bool:
    try:
        segments = compute_segments(old_path, new_path)
    except ValueError:
        return False
    return any(not s.forward for s in segments)


def fig1_style_reroute(topo: Topology, old_path: list[str]):
    """Construct a new path that revisits two old-path interior nodes
    in *swapped* order through fresh detours — the Fig. 1 pattern that
    creates forward/backward segmentation.

    For old path [s, ..., u, ..., w, ..., t] the new path is
    s ~> w ~> u ~> t with every leg routed over nodes not otherwise
    used.  Returns None when the topology admits no such reroute for
    this old path.
    """
    if len(old_path) < 4:
        return None
    interior = old_path[1:-1]
    s, t = old_path[0], old_path[-1]
    best = None
    best_score = (-1, -1)

    def leg_candidates(forbid, a, b, k):
        try:
            yield from islice(shortest_simple_paths(topo.adj, a, b, forbid), k)
        except NoPathError:
            return

    for i in range(len(interior) - 1):
        for j in range(i + 1, len(interior)):
            u, w = interior[i], interior[j]           # old order: u before w
            waypoints = [s, w, u, t]                  # new order: w before u
            forbid1 = (set(waypoints)) - {s, w}
            for leg1 in leg_candidates(forbid1, s, w, 3):
                used1 = set(leg1[1:-1])
                # Middle leg (w -> u): explore several candidates —
                # its interior nodes are exactly what DL-P4Update
                # pre-installs, so prefer non-trivial ones.
                forbid2 = (set(waypoints) | used1) - {w, u}
                for leg2 in leg_candidates(forbid2, w, u, 4):
                    used2 = used1 | set(leg2[1:-1])
                    forbid3 = (set(waypoints) | used2) - {u, t}
                    for leg3 in leg_candidates(forbid3, u, t, 2):
                        new_path = leg1 + leg2[1:] + leg3[1:]
                        if len(set(new_path)) != len(new_path):
                            continue
                        if new_path == old_path:
                            continue
                        try:
                            segments = compute_segments(old_path, new_path)
                        except ValueError:
                            continue
                        backward = [seg for seg in segments if not seg.forward]
                        if not backward:
                            continue
                        score = (
                            sum(len(seg.interior) for seg in backward),
                            len(new_path),
                        )
                        if score > best_score:
                            best, best_score = new_path, score
    return best


def single_flow_scenario(
    topo: Topology,
    rng: Optional[np.random.Generator] = None,
    k_candidates: int = 12,
) -> UpdateScenario:
    """Long-distance flow whose reroute triggers segmentation.

    For the Fig. 1 synthetic topology the paper's exact paths are
    used.  For WANs we pick the latency-diameter endpoint pair and
    search its k-shortest paths for a new path with a backward
    segment; if none exists, the longest-sharing candidate is used.
    """
    if topo.name == "fig1":
        flow = Flow.between(
            "v0", "v7", size=1.0,
            old_path=list(FIG1_OLD_PATH), new_path=list(FIG1_NEW_PATH),
        )
        return UpdateScenario(topo, [flow], "fig1 single flow")

    rng = rng if rng is not None else np.random.default_rng(0)
    # Endpoint pairs by decreasing latency of the shortest path.
    pairs = sorted(
        (
            (topo.path_latency(topo.shortest_path(src, dst)), src, dst)
            for src in sorted(topo.nodes)
            for dst in sorted(topo.nodes)
            if src < dst
        ),
        reverse=True,
    )
    # First choice: a Fig.-1-style constructed reroute (backward
    # segment with fresh interiors) on the longest feasible pair.
    for _latency, src, dst in pairs:
        old_path = topo.shortest_path(src, dst)
        new_path = fig1_style_reroute(topo, old_path)
        if new_path is not None:
            flow = Flow.between(src, dst, size=1.0, old_path=old_path, new_path=new_path)
            return UpdateScenario(
                topo, [flow],
                f"single flow {src}->{dst} ({len(old_path)}->{len(new_path)} nodes, segmented)",
            )
    # Fall back: search k-shortest candidates of the diameter pair.
    _latency, src, dst = pairs[0]
    candidates = k_shortest_paths(topo, src, dst, k_candidates)
    old_path = candidates[0]
    new_path = None
    for candidate in candidates[1:]:
        if candidate != old_path and _has_backward_segment(old_path, candidate):
            new_path = candidate
            break
    if new_path is None:
        # Last resort: the candidate sharing the most nodes (still
        # triggers segmentation into several forward segments).
        scored = sorted(
            (c for c in candidates[1:] if c != old_path),
            key=lambda c: -len(set(c) & set(old_path)),
        )
        new_path = scored[0]
    flow = Flow.between(src, dst, size=1.0, old_path=old_path, new_path=new_path)
    return UpdateScenario(
        topo, [flow],
        f"single flow {src}->{dst} ({len(old_path)}->{len(new_path)} nodes)",
    )


# -- multiple flows (Fig. 7 right column) ------------------------------------------


def multi_flow_scenario(
    topo: Topology,
    rng: Optional[np.random.Generator] = None,
    utilisation: float = 0.9,
    endpoints: Optional[list[str]] = None,
    max_attempts: int = 25,
) -> UpdateScenario:
    """Per-node random destinations, shortest -> 2nd-shortest reroute,
    gravity sizes scaled close to capacity (§9.1).

    Following the paper: sizes are scaled so the most loaded link under
    the *old* routing sits at ``utilisation`` of its capacity; "if the
    new flow paths are not feasible w.r.t. capacity, we repeat the
    traffic generation".  The transition itself still contends for
    capacity, which is what exercises the data-plane scheduler.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    nodes = endpoints if endpoints is not None else sorted(topo.nodes)
    for _attempt in range(max_attempts):
        pairs: list[tuple[str, str]] = []
        paths: list[tuple[list[str], list[str]]] = []
        for src in nodes:
            for _ in range(10):             # retry until a reroutable dst
                dst = nodes[int(rng.integers(0, len(nodes)))]
                if dst == src or (src, dst) in pairs:
                    continue
                second = second_shortest_path(topo, src, dst)
                if second is None:
                    continue
                pairs.append((src, dst))
                paths.append((topo.shortest_path(src, dst), second))
                break

        sizes = gravity_flow_sizes(pairs, rng, mean_size=1.0)
        flows = [
            Flow(
                flow_id=flow_hash(src, dst),
                src=src, dst=dst, size=size,
                old_path=old, new_path=new,
            )
            for (src, dst), size, (old, new) in zip(pairs, sizes, paths)
        ]
        flow_set = FlowSet(flows)
        old_load = flow_set.link_load("old", directed=True)
        worst = max(
            (load / topo.capacity(a, b) for (a, b), load in old_load.items()),
            default=0.0,
        )
        if worst > 0:
            alpha = utilisation / worst
            flows = [
                Flow(
                    flow_id=f.flow_id, src=f.src, dst=f.dst,
                    size=f.size * alpha, old_path=f.old_path, new_path=f.new_path,
                )
                for f in flows
            ]
            flow_set = FlowSet(flows)
        capacities = {
            frozenset((e.a, e.b)): e.capacity for e in topo.edges
        }
        if flow_set.feasible(capacities, "new", directed=True):
            return UpdateScenario(topo, flows, f"{len(flows)} flows near capacity")
        # New routing infeasible: repeat the traffic generation (§9.1).
    raise RuntimeError(
        f"could not generate a feasible near-capacity workload on "
        f"{topo.name!r} after {max_attempts} attempts"
    )


# -- Fig. 2: inconsistent updates ------------------------------------------------------


@dataclass
class InconsistentUpdateScenario:
    """§4.1: configs (a) -> (c) deployed while (b) is still in flight."""

    config_a: list[str] = field(default_factory=lambda: list(FIG2_CONFIG_A))
    config_b: list[str] = field(default_factory=lambda: list(FIG2_CONFIG_B))
    config_c: list[str] = field(default_factory=lambda: list(FIG2_CONFIG_C))
    # How long the (b) messages are delayed beyond (c)'s send time.
    # Long enough that packets trapped in the {v1,v2,v3} loop (60 ms
    # per lap at 20 ms links) exhaust TTL 64 (~21 laps, §4.1) before
    # the delayed (b) resolves the loop.
    b_delay_ms: float = 1500.0
    probe_rate_pps: float = 125.0
    probe_ttl: int = 64


# -- Fig. 4: fast-forward ------------------------------------------------------------------


@dataclass
class FastForwardScenario:
    """§4.2: complex U2 is still ongoing when simple U3 is issued."""

    initial: list[str] = field(default_factory=lambda: list(SIX_NODE_INITIAL))
    u2: list[str] = field(default_factory=lambda: list(SIX_NODE_U2))
    u3: list[str] = field(default_factory=lambda: list(SIX_NODE_U3))
    # U3 is issued this long after U2 (while U2 is in progress).
    u3_delay_ms: float = 5.0
