"""Path computation: latency-weighted k-shortest (loopless) paths.

The multi-flow scenario routes each flow on its shortest path (old)
and its 2nd-shortest path (new), per paper §9.1.  The search itself is
:meth:`Topology.k_shortest_paths`, answered once per process for each
topology structure.
"""

from __future__ import annotations

from typing import Optional

from repro.topo.graph import Topology


def k_shortest_paths(topo: Topology, src: str, dst: str, k: int) -> list[list[str]]:
    """Up to ``k`` loopless paths in increasing latency order."""
    if src == dst:
        raise ValueError("src and dst must differ")
    return topo.k_shortest_paths(src, dst, k)


def second_shortest_path(topo: Topology, src: str, dst: str) -> Optional[list[str]]:
    """The 2nd-shortest loopless path, or None if only one exists."""
    paths = k_shortest_paths(topo, src, dst, 2)
    if len(paths) < 2:
        return None
    return paths[1]
