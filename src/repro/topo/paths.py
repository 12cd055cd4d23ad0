"""Latency-weighted searches over a topology's adjacency.

The adjacency is ``node -> {peer: edge data}``: one data dict shared by
both directions of an edge, neighbours in insertion order.  The four
routines are tie-for-tie ports of the networkx 3 code the topology used
(``_dijkstra_multisource``, ``simple_paths._bidirectional_dijkstra``,
``shortest_simple_paths`` and the BFS behind ``connected_components``):
they meet neighbours in adjacency order, break heap ties by a push
counter and sum latencies in the same order, so on equal adjacency they
return the same path networkx returns.  Which of two equal-latency paths
wins is decided by exactly that order, and every pinned trace signature
records the winner: do not reorder these loops.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Collection, Iterator, Optional

Adjacency = dict[str, dict[str, dict[str, Any]]]

WEIGHT = "latency_ms"


class NoPathError(Exception):
    """No path joins the pair: an endpoint is unknown or excluded, or
    what is left of the graph disconnects them."""


def dijkstra_lengths(adj: Adjacency, source: str) -> dict[str, Any]:
    """Latency of the shortest path from ``source`` to every node it
    reaches (``source`` itself at ``0``)."""
    if source not in adj:
        raise NoPathError(f"node {source!r} is not in the graph")
    dist: dict[str, Any] = {}
    seen: dict[str, Any] = {source: 0}
    counter = count()
    fringe: list[tuple[Any, int, str]] = [(0, next(counter), source)]
    while fringe:
        dist_v, _, v = heappop(fringe)
        if v in dist:
            continue
        dist[v] = dist_v
        for u, data in adj[v].items():
            if u in dist:
                continue
            vu_dist = dist_v + data[WEIGHT]
            if u not in seen or vu_dist < seen[u]:
                seen[u] = vu_dist
                heappush(fringe, (vu_dist, next(counter), u))
    return dist


def bidirectional_dijkstra(
    adj: Adjacency,
    source: str,
    target: str,
    ignore_nodes: Collection[str] = (),
    ignore_edges: Collection[tuple[str, str]] = (),
) -> tuple[Any, list[str]]:
    """``(length, path)`` of the latency-shortest ``source`` -> ``target``
    path that enters no node of ``ignore_nodes`` and uses no edge of
    ``ignore_edges`` (either direction)."""
    if source not in adj or target not in adj:
        raise NoPathError(f"{source!r} or {target!r} is not in the graph")
    if ignore_nodes and (source in ignore_nodes or target in ignore_nodes):
        raise NoPathError(f"no path between {source!r} and {target!r}")
    if source == target:
        return 0, [source]

    def neighbours(v: str) -> Iterator[tuple[str, dict[str, Any]]]:
        for w, data in adj[v].items():
            if ignore_nodes and w in ignore_nodes:
                continue
            if ignore_edges and ((v, w) in ignore_edges or (w, v) in ignore_edges):
                continue
            yield w, data

    dists: tuple[dict[str, Any], dict[str, Any]] = ({}, {})
    paths = ({source: [source]}, {target: [target]})
    seen: tuple[dict[str, Any], dict[str, Any]] = ({source: 0}, {target: 0})
    counter = count()
    fringe: tuple[list, list] = ([(0, next(counter), source)], [(0, next(counter), target)])
    final_dist: Any = None
    final_path: list[str] = []
    direction = 1
    while fringe[0] and fringe[1]:
        direction = 1 - direction
        dist, _, v = heappop(fringe[direction])
        if v in dists[direction]:
            continue
        dists[direction][v] = dist
        if v in dists[1 - direction]:
            return final_dist, final_path
        for w, data in neighbours(v):
            if w in dists[direction]:
                continue
            vw_length = dist + data[WEIGHT]
            if w not in seen[direction] or vw_length < seen[direction][w]:
                seen[direction][w] = vw_length
                heappush(fringe[direction], (vw_length, next(counter), w))
                paths[direction][w] = paths[direction][v] + [w]
                if w in seen[0] and w in seen[1]:
                    total = seen[0][w] + seen[1][w]
                    if not final_path or final_dist > total:
                        final_dist = total
                        final_path = paths[0][w] + paths[1][w][::-1][1:]
    raise NoPathError(f"no path between {source!r} and {target!r}")


def shortest_simple_paths(
    adj: Adjacency,
    source: str,
    target: str,
    ignore_nodes: Collection[str] = (),
) -> Iterator[list[str]]:
    """Loopless ``source`` -> ``target`` paths avoiding ``ignore_nodes``,
    shortest first (Yen's algorithm).  Lazy, like networkx's: an unknown
    or excluded endpoint raises on the first ``next``."""
    if source not in adj or target not in adj:
        raise NoPathError(f"{source!r} or {target!r} is not in the graph")

    def length(path: list[str]) -> Any:
        return sum(adj[u][v][WEIGHT] for u, v in zip(path, path[1:]))

    found: list[list[str]] = []
    buffered: set[tuple[str, ...]] = set()
    heap: list[tuple[Any, int, list[str]]] = []
    counter = count()

    def push(cost: Any, path: list[str]) -> None:
        if tuple(path) not in buffered:
            heappush(heap, (cost, next(counter), path))
            buffered.add(tuple(path))

    prev_path: Optional[list[str]] = None
    while True:
        if not prev_path:
            push(*bidirectional_dijkstra(adj, source, target, ignore_nodes))
        else:
            spur_nodes = set(ignore_nodes)
            spur_edges: set[tuple[str, str]] = set()
            for i in range(1, len(prev_path)):
                root = prev_path[:i]
                root_length = length(root)
                for path in found:
                    if path[:i] == root:
                        spur_edges.add((path[i - 1], path[i]))
                try:
                    cost, spur = bidirectional_dijkstra(
                        adj, root[-1], target, spur_nodes, spur_edges
                    )
                except NoPathError:
                    pass
                else:
                    push(root_length + cost, root[:-1] + spur)
                spur_nodes.add(root[-1])
        if not heap:
            return
        path = heappop(heap)[2]
        buffered.remove(tuple(path))
        yield path
        found.append(path)
        prev_path = path


def components(adj: Adjacency) -> Iterator[set[str]]:
    """Connected components as node sets, in order of their first node."""
    seen: set[str] = set()
    for start in adj:
        if start in seen:
            continue
        component = {start}
        level = [start]
        while level:
            next_level = []
            for v in level:
                for w in adj[v]:
                    if w not in component:
                        component.add(w)
                        next_level.append(w)
            level = next_level
        seen |= component
        yield component
