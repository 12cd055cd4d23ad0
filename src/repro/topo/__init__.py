"""Network topologies used in the paper's evaluation (§9.1).

WAN topologies carry approximate site coordinates; link latency is
derived from great-circle distance at fibre propagation speed
(:mod:`repro.topo.latency`).  Node/edge counts match the paper's
2-tuples: B4 (12, 19), Internet2 (16, 26), AttMpls (25, 56),
Chinanet (38, 62).

:data:`TOPOLOGIES` names each factory by ``module:attribute``: a
topology's module is imported on the first call of its factory, so a
process that runs on B4 never loads the Chinanet site table.
"""

import functools
from typing import Callable

from repro.loading import resolve_attribute
from repro.topo.graph import Topology


def _factory(path: str, *args: int) -> Callable[[], Topology]:
    """The factory ``path`` names, resolved when it is called."""

    def build() -> Topology:
        topology: Topology = resolve_attribute(path)(*args)
        return topology

    return build


#: The one name -> factory table: every spec format (experiment, chaos,
#: serve, ops, sweep, fuzz) resolves topology names here.
TOPOLOGIES: dict[str, Callable[[], Topology]] = {
    "fig1": _factory("repro.topo.synthetic:fig1_topology"),
    "fig2": _factory("repro.topo.synthetic:fig2_topology"),
    "six_node": _factory("repro.topo.synthetic:six_node_topology"),
    "b4": _factory("repro.topo.b4:b4_topology"),
    "internet2": _factory("repro.topo.internet2:internet2_topology"),
    "attmpls": _factory("repro.topo.attmpls:attmpls_topology"),
    "chinanet": _factory("repro.topo.chinanet:chinanet_topology"),
    "fattree4": _factory("repro.topo.fattree:fattree_topology", 4),
}


@functools.lru_cache(maxsize=None)
def topology_shape(
    name: str,
) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Sorted nodes and sorted ``(a, b)``, ``a < b`` links of a
    registered topology (cached: topologies are deterministic per name)."""
    topo = TOPOLOGIES[name]()
    nodes = tuple(sorted(str(n) for n in topo.nodes))
    links = tuple(
        sorted((str(e.a), str(e.b)) if str(e.a) < str(e.b) else (str(e.b), str(e.a))
               for e in topo.edges)
    )
    return nodes, links
