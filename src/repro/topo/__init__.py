"""Network topologies used in the paper's evaluation (§9.1).

WAN topologies carry approximate site coordinates; link latency is
derived from great-circle distance at fibre propagation speed
(:mod:`repro.topo.latency`).  Node/edge counts match the paper's
2-tuples: B4 (12, 19), Internet2 (16, 26), AttMpls (25, 56),
Chinanet (38, 62).
"""

import functools
from typing import Callable

from repro.topo.attmpls import attmpls_topology
from repro.topo.b4 import b4_topology
from repro.topo.chinanet import chinanet_topology
from repro.topo.fattree import fattree_topology
from repro.topo.graph import Topology
from repro.topo.internet2 import internet2_topology
from repro.topo.synthetic import fig1_topology, fig2_topology, six_node_topology

#: The one name -> factory table: every spec format (experiment, chaos,
#: serve, ops, sweep, fuzz) resolves topology names here.
TOPOLOGIES: dict[str, Callable[[], Topology]] = {
    "fig1": fig1_topology,
    "fig2": fig2_topology,
    "six_node": six_node_topology,
    "b4": b4_topology,
    "internet2": internet2_topology,
    "attmpls": attmpls_topology,
    "chinanet": chinanet_topology,
    "fattree4": lambda: fattree_topology(4),
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
