"""The :class:`Topology` abstraction.

A validated undirected graph that carries everything the harness
needs: per-link latency and capacity, optional site coordinates, and
controller placement.  Paths come from :mod:`repro.topo.paths`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, Callable, Iterable, Optional

from repro.topo import paths
from repro.topo.latency import geo_latency_ms

DEFAULT_CAPACITY = 100.0

#: Process-wide memo of pure graph-query results: structure key ->
#: {query key -> immutable answer}.  The evaluation re-runs the same few
#: WANs thousands of times (sweep shards, serve replicas, fuzz cases),
#: and a path, a control latency or the centroid depends on nothing but
#: the graph.  A pure-function store, not run state, and the one
#: module-level store that runs fill (``tests/sweep/test_reset.py``
#: audits that): it is keyed by exact structure (node order, adjacency
#: order, edge latencies), so a warm and a cold process return equal
#: answers and no trace or counter can tell them apart
#: (``Topology.path_cache_stats()`` counts per instance, in front of
#: it).  Nothing clears it between runs: that would only re-pay the
#: searches for the same answers.
_STRUCTURE_MEMO: dict[tuple, dict[tuple, Any]] = {}
#: Structures kept, oldest evicted first (the built-in registry has 8).
_STRUCTURE_MEMO_BOUND = 32


@dataclass(frozen=True)
class EdgeSpec:
    """One undirected edge with its attributes."""

    a: str
    b: str
    latency_ms: float
    capacity: float


class Topology:
    """Named, validated network topology.

    Parameters
    ----------
    name:
        Identifier used in traces and benchmark rows.
    coordinates:
        Optional mapping node -> (lat, lon); when present, edges added
        with ``latency_ms=None`` get geographic latency.
    """

    def __init__(
        self,
        name: str,
        coordinates: Optional[dict[str, tuple[float, float]]] = None,
    ) -> None:
        self.name = name
        #: node -> {peer: edge data}; both directions of an edge share
        #: one data dict, and peers keep insertion order (ties in every
        #: search break in that order, :mod:`repro.topo.paths`).
        self.adj: paths.Adjacency = {}
        self.coordinates = dict(coordinates or {})
        self.controller: Optional[str] = None
        # Path cache, keyed on the mutation revision: every structural
        # change bumps ``_revision``; lookups lazily discard entries
        # cached under an older revision.  Drain/migrate/rebalance ops
        # recompute the same (src, dst) pairs constantly — without the
        # cache every probe is a full Dijkstra.
        self._revision = 0
        self._path_cache: dict[tuple, tuple[str, ...]] = {}
        self._path_cache_revision = 0
        self.path_cache_hits = 0
        self.path_cache_misses = 0
        # (revision it was bound under, this structure's slot of
        # ``_STRUCTURE_MEMO``); process-local.
        self._memo: tuple[int, dict[tuple, Any]] = (-1, {})

    # -- construction ------------------------------------------------------

    def add_node(self, node: str, lat: Optional[float] = None, lon: Optional[float] = None) -> None:
        self.adj.setdefault(node, {})
        self._revision += 1
        if lat is not None and lon is not None:
            self.coordinates[node] = (lat, lon)

    def add_edge(
        self,
        a: str,
        b: str,
        latency_ms: Optional[float] = None,
        capacity: float = DEFAULT_CAPACITY,
    ) -> None:
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
        if latency_ms is None:
            latency_ms = self._geo_latency(a, b)
        if latency_ms <= 0:
            raise ValueError(f"non-positive latency on edge ({a!r}, {b!r})")
        self.adj.setdefault(a, {})
        self.adj.setdefault(b, {})
        data = self.adj[a].get(b, {})
        data.update(latency_ms=latency_ms, capacity=capacity)
        self.adj[a][b] = self.adj[b][a] = data
        self._revision += 1

    def _geo_latency(self, a: str, b: str) -> float:
        try:
            (lat1, lon1), (lat2, lon2) = self.coordinates[a], self.coordinates[b]
        except KeyError as exc:
            raise ValueError(
                f"edge ({a!r}, {b!r}) needs latency_ms or coordinates"
            ) from exc
        return geo_latency_ms(lat1, lon1, lat2, lon2)

    @classmethod
    def from_edges(
        cls,
        name: str,
        edges: Iterable[tuple],
        coordinates: Optional[dict[str, tuple[float, float]]] = None,
        default_latency_ms: Optional[float] = None,
        capacity: float = DEFAULT_CAPACITY,
    ) -> "Topology":
        """Build from ``(a, b)`` or ``(a, b, latency_ms)`` tuples."""
        topo = cls(name, coordinates=coordinates)
        for node in coordinates or {}:
            topo.add_node(node)
        for edge in edges:
            if len(edge) == 2:
                a, b = edge
                latency = default_latency_ms
            else:
                a, b, latency = edge
            topo.add_edge(a, b, latency_ms=latency, capacity=capacity)
        return topo

    # -- queries ---------------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        return list(self.adj)

    @property
    def edges(self) -> list[EdgeSpec]:
        """Each edge once, from its earlier node, in adjacency order."""
        done: set[str] = set()
        edges = []
        for a, peers in self.adj.items():
            edges.extend(
                EdgeSpec(a, b, data["latency_ms"], data["capacity"])
                for b, data in peers.items()
                if b not in done
            )
            done.add(a)
        return edges

    def num_nodes(self) -> int:
        return len(self.adj)

    def num_edges(self) -> int:
        return sum(len(peers) for peers in self.adj.values()) // 2

    def latency(self, a: str, b: str) -> float:
        return self.adj[a][b]["latency_ms"]

    def capacity(self, a: str, b: str) -> float:
        return self.adj[a][b]["capacity"]

    def neighbors(self, node: str) -> list[str]:
        return list(self.adj[node])

    def is_connected(self) -> bool:
        return bool(self.adj) and len(next(paths.components(self.adj))) == len(self.adj)

    def validate(self) -> None:
        """Raise ValueError when the topology is unusable."""
        if not self.is_connected():
            raise ValueError(f"topology {self.name!r} is not connected")

    # -- structure memo ---------------------------------------------------------

    def _answers(self) -> dict[tuple, Any]:
        """This structure's answers in the process-wide memo.

        The key is everything a latency-weighted search reads: node
        order, each node's adjacency order (the searches break ties in
        the order they meet neighbours, and fat-trees and rings tie) and
        each edge's latency.  Capacity is left out: no path query reads
        it, and ``apply_link_capacity`` rewrites it without a revision.
        """
        if self._memo[0] != self._revision:
            structure = tuple(
                (node, tuple((peer, data.get("latency_ms")) for peer, data in peers.items()))
                for node, peers in self.adj.items()
            )
            answers = _STRUCTURE_MEMO.get(structure)
            if answers is None:
                if len(_STRUCTURE_MEMO) >= _STRUCTURE_MEMO_BOUND:
                    del _STRUCTURE_MEMO[next(iter(_STRUCTURE_MEMO))]
                answers = _STRUCTURE_MEMO[structure] = {}
            self._memo = (self._revision, answers)
        return self._memo[1]

    def _memoised(self, key: tuple, compute: Callable[[], Any]) -> Any:
        """``compute()``, run once per process for this exact structure.
        Answers are immutable; an exception is raised again next time."""
        answers = self._answers()
        if key not in answers:
            answers[key] = compute()
        return answers[key]

    # -- latency-weighted paths ---------------------------------------------------

    @property
    def revision(self) -> int:
        """Monotonic structural-mutation counter (cache key)."""
        return self._revision

    def invalidate_path_cache(self) -> None:
        """Force-drop cached paths (call after mutating ``.adj``
        directly, bypassing :meth:`add_node`/:meth:`add_edge`)."""
        self._revision += 1

    def _cached_path(self, key: tuple, compute: Callable[[], tuple[str, ...]]) -> list[str]:
        if self._path_cache_revision != self._revision:
            self._path_cache.clear()
            self._path_cache_revision = self._revision
        cached = self._path_cache.get(key)
        if cached is not None:
            self.path_cache_hits += 1
            return list(cached)
        self.path_cache_misses += 1
        path = self._path_cache[key] = tuple(compute())
        return list(path)

    def path_cache_stats(self) -> dict[str, float]:
        """Hits/misses/hit-rate since construction (ops bench probe)."""
        total = self.path_cache_hits + self.path_cache_misses
        return {
            "hits": self.path_cache_hits,
            "misses": self.path_cache_misses,
            "hit_rate": (self.path_cache_hits / total) if total else 0.0,
        }

    def _shortest(
        self, src: str, dst: str, avoid: tuple[str, ...] = ()
    ) -> tuple[str, ...]:
        def compute() -> tuple[str, ...]:
            return tuple(paths.bidirectional_dijkstra(self.adj, src, dst, set(avoid))[1])

        return self._memoised(("path", src, dst, avoid), compute)

    def shortest_path(self, src: str, dst: str) -> list[str]:
        return self._cached_path((src, dst), lambda: self._shortest(src, dst))

    def shortest_path_avoiding(
        self, src: str, dst: str, avoid: frozenset[str]
    ) -> list[str]:
        """Latency-shortest path whose transit nodes skip ``avoid``.

        ``src``/``dst`` may not be in ``avoid``.  Raises
        :class:`~repro.topo.paths.NoPathError` when avoidance disconnects
        the pair — callers (drain/migrate) treat that as "park, don't move".
        """
        if src in avoid or dst in avoid:
            raise paths.NoPathError(
                f"endpoint of ({src!r}, {dst!r}) is in the avoid set"
            )
        if not avoid:
            return self.shortest_path(src, dst)
        nodes = tuple(sorted(avoid))
        return self._cached_path(
            (src, dst, nodes), lambda: self._shortest(src, dst, nodes)
        )

    def k_shortest_paths(self, src: str, dst: str, k: int) -> list[list[str]]:
        """Up to ``k`` loopless paths in increasing latency order.

        One memo entry per pair holds the longest prefix asked for so
        far; a larger ``k`` recomputes and replaces it.
        """
        if src == dst:
            raise ValueError("src and dst must differ")
        if k < 0:
            raise ValueError(f"k must be non-negative, got {k}")
        answers = self._answers()
        asked, found = answers.get(("k-paths", src, dst), (0, ()))
        if asked < k and len(found) == asked:
            search = paths.shortest_simple_paths(self.adj, src, dst)
            found = tuple(tuple(path) for path in islice(search, k))
            answers["k-paths", src, dst] = (k, found)
        return [list(path) for path in found[:k]]

    def path_latency(self, path: list[str]) -> float:
        return sum(self.latency(a, b) for a, b in zip(path, path[1:]))

    def control_latency(self, switch: str, controller: Optional[str] = None) -> float:
        """Latency of the shortest path from the controller to ``switch``."""
        controller = controller or self.controller
        if controller is None:
            raise ValueError("no controller placed")
        if switch == controller:
            return 0.05  # local loopback floor
        try:
            return self._lengths(controller)[switch]
        except KeyError:
            raise paths.NoPathError(f"no path between {controller!r} and {switch!r}") from None

    def _lengths(self, source: str) -> dict[str, float]:
        """Latency from ``source`` to every node it reaches (memoised)."""
        return self._memoised(
            ("lengths", source), lambda: paths.dijkstra_lengths(self.adj, source)
        )

    # -- controller placement --------------------------------------------------------

    def place_controller_at_centroid(self) -> str:
        """Place the controller at the node minimising worst-case
        control latency (the paper's centroid rule, §9.1)."""

        def centroid() -> str:
            return min(self.adj, key=lambda n: (max(self._lengths(n).values()), n))

        self.controller = self._memoised(("centroid",), centroid)
        return self.controller

    def set_controller(self, node: str) -> None:
        if node not in self.adj:
            raise ValueError(f"unknown node {node!r}")
        self.controller = node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Topology {self.name!r} n={self.num_nodes()} m={self.num_edges()} "
            f"controller={self.controller!r}>"
        )
