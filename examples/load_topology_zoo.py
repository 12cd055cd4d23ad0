#!/usr/bin/env python3
"""Bring your own topology — loading Topology Zoo GraphML files.

The paper's AttMpls and Chinanet come from the Internet Topology Zoo
(topology-zoo.org).  Any of the Zoo's ``.graphml`` files loads the
same way: node coordinates become link latencies, and the resulting
`Topology` drives every experiment in this repository.

This example uses the embedded 4-city sample (the same format), runs a
DL update over it, and shows how you would load a downloaded file.

Run:  python examples/load_topology_zoo.py [path/to/file.graphml]
"""

import sys

from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.params import SimParams
from repro.topo.zoo import load_graphml, sample_zoo_topology
from repro.traffic.flows import Flow
from repro.traffic.paths import second_shortest_path


def main() -> None:
    if len(sys.argv) > 1:
        topo = load_graphml(sys.argv[1])
        print(f"loaded {sys.argv[1]}")
    else:
        topo = sample_zoo_topology()
        print("loaded the embedded sample (pass a .graphml path to use your own)")
    print(f"topology: {topo.name} — {topo.num_nodes()} nodes, "
          f"{topo.num_edges()} links")
    for edge in topo.edges[:6]:
        print(f"  {edge.a:12s} - {edge.b:12s} {edge.latency_ms:6.2f} ms")

    controller = topo.place_controller_at_centroid()
    print(f"controller placed at the latency centroid: {controller}\n")

    # Pick the latency-diameter pair and reroute it.
    nodes = sorted(topo.nodes)
    src, dst = max(
        ((a, b) for a in nodes for b in nodes if a < b),
        key=lambda pair: topo.path_latency(topo.shortest_path(*pair)),
    )
    old = topo.shortest_path(src, dst)
    new = second_shortest_path(topo, src, dst)
    if new is None:
        print(f"{src} -> {dst} has a single path; nothing to reroute")
        return

    deployment = build_p4update_network(topo, params=SimParams(seed=0))
    flow = Flow.between(src, dst, size=1.0, old_path=old)
    deployment.install_flow(flow)
    deployment.controller.update_flow(flow.flow_id, new)
    deployment.run()

    print(f"rerouted {src} -> {dst}")
    print(f"  old: {' -> '.join(old)}")
    print(f"  new: {' -> '.join(new)}")
    print(f"  update time: {deployment.controller.update_duration(flow.flow_id):.1f} ms")
    print(f"  consistent:  {deployment.checker.ok}")


if __name__ == "__main__":
    main()
