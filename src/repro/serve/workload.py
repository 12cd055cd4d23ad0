"""Seeded request workloads for the update service.

Two pieces:

* a **flow population** — ``flows`` src/dst pairs on the spec topology
  that each have both a shortest (primary) and 2nd-shortest (alternate)
  path, sized by the gravity model (``repro.traffic.gravity``); update
  requests toggle a flow between its two paths;
* an **arrival stream** — ``(gap_ms, flow_index)`` pairs drawn one at a
  time (:func:`draw_open_arrival`), so request counts in the millions
  stream through without materialising anything; each arrival picks a
  flow with probability proportional to its gravity size (heavy flows
  are updated more often, matching tenant demand).

Both are driven by caller-provided RNG streams, so the same seed
produces the same population and the same arrival order regardless of
dict/set iteration order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.topo.graph import Topology
from repro.traffic.flows import Flow
from repro.traffic.gravity import gravity_flow_sizes
from repro.traffic.paths import second_shortest_path


@dataclass(frozen=True)
class ServiceFlow:
    """One tenant flow the service can reroute, with its two paths."""

    flow_id: int
    src: str
    dst: str
    size: float
    primary: tuple[str, ...]
    alternate: tuple[str, ...]

    def to_flow(self) -> Flow:
        """The initial install: routed on the primary path."""
        return Flow(
            flow_id=self.flow_id,
            src=self.src,
            dst=self.dst,
            size=self.size,
            old_path=list(self.primary),
            new_path=list(self.primary),
        )

    def nodes(self) -> frozenset[str]:
        """Every switch either path touches (conflict footprint)."""
        return frozenset(self.primary) | frozenset(self.alternate)

    def other_path(self, current: tuple[str, ...]) -> tuple[str, ...]:
        """The path a toggle moves onto: the alternate when the flow is
        on its primary, the primary otherwise."""
        return self.alternate if current == self.primary else self.primary


def build_flow_population(
    topo: Topology,
    count: int,
    rng: np.random.Generator,
    mean_size: float = 1.0,
    max_attempts: int = 2000,
) -> list[ServiceFlow]:
    """``count`` distinct flows that each admit a primary/alternate pair.

    Endpoint pairs are drawn uniformly from the sorted node list (so
    the draw depends only on the node *set*), deduplicated, and kept
    only when a 2nd-shortest path exists.  Sizes come from the gravity
    model over the accepted pairs.
    """
    nodes = sorted(topo.nodes)
    if len(nodes) < 2:
        raise ValueError(f"topology {topo.name!r} too small for a flow population")
    pairs: list[tuple[str, str]] = []
    paths: dict[tuple[str, str], tuple[list[str], list[str]]] = {}
    attempts = 0
    while len(pairs) < count and attempts < max_attempts:
        attempts += 1
        i, j = (int(x) for x in rng.choice(len(nodes), size=2, replace=False))
        pair = (nodes[i], nodes[j])
        if pair in paths:
            continue
        alternate = second_shortest_path(topo, *pair)
        if alternate is None:
            continue
        primary = topo.shortest_path(*pair)
        pairs.append(pair)
        paths[pair] = (primary, alternate)
    if len(pairs) < count:
        raise ValueError(
            f"topology {topo.name!r} yielded only {len(pairs)} of {count} "
            f"reroutable flows after {max_attempts} attempts"
        )
    sizes = gravity_flow_sizes(pairs, rng, mean_size=mean_size)
    population = []
    for (src, dst), size in zip(pairs, sizes):
        primary, alternate = paths[(src, dst)]
        flow_id = Flow.between(src, dst).flow_id
        population.append(
            ServiceFlow(
                flow_id=flow_id,
                src=src,
                dst=dst,
                size=float(size),
                primary=tuple(primary),
                alternate=tuple(alternate),
            )
        )
    return population


def flow_weights(population: list[ServiceFlow]) -> np.ndarray:
    """Request-sampling probabilities, proportional to gravity size."""
    raw = np.array([f.size for f in population], dtype=float)
    total = float(raw.sum())
    if total <= 0:
        return np.full(len(population), 1.0 / len(population))
    return raw / total


def flow_cdf(weights: np.ndarray) -> list[float]:
    """Cumulative pick distribution, computed once per session with the
    arithmetic a weighted ``Generator.choice`` repeats on every call."""
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def closed_loop_pick(rng: np.random.Generator, cdf: list[float]) -> int:
    """One weighted flow pick: a closed-loop client's whole submit, and
    the second draw of an open-loop arrival.  Spends the one double, and
    returns the index, that a ``rng.choice`` over the same weights would."""
    return bisect_right(cdf, rng.random())


def draw_open_arrival(
    rng: np.random.Generator, rate_per_s: float, cdf: list[float]
) -> tuple[float, int]:
    """The next Poisson arrival: ``(gap_ms_since_previous, flow_index)``.

    Stateless and exactly two variates per call — one ``exponential``,
    then one weighted pick — so the arrival order is a function of the
    rng state alone and a stream of millions costs O(1) memory.
    """
    if rate_per_s <= 0:
        raise ValueError("open-loop arrivals need rate_per_s > 0")
    gap = float(rng.exponential(1000.0 / rate_per_s))
    return gap, closed_loop_pick(rng, cdf)
