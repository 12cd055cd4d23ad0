"""The 2nd-shortest (loopless, latency-weighted) path.

The multi-flow scenario routes each flow on its shortest path (old)
and its 2nd-shortest path (new), per paper §9.1.  The search itself is
:meth:`Topology.k_shortest_paths`, answered once per process for each
topology structure.
"""

from __future__ import annotations

from typing import Optional

from repro.topo.graph import Topology


def second_shortest_path(topo: Topology, src: str, dst: str) -> Optional[list[str]]:
    """The 2nd-shortest loopless path, or None if only one exists."""
    paths = topo.k_shortest_paths(src, dst, 2)
    if len(paths) < 2:
        return None
    return paths[1]
