#!/usr/bin/env python3
"""Quickstart — your first consistent network update with P4Update.

Builds a six-node ring, installs a flow on its shortest path, then
reroutes it the long way around with a single-layer (SL) update.  The
deployment's live consistency checker confirms that at no instant during the update
the network had a blackhole, loop or over-capacity link.

Run:  python examples/quickstart.py
"""

from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.params import SimParams
from repro.topo.synthetic import ring_topology
from repro.traffic.flows import Flow


def main() -> None:
    # 1. A topology: six switches in a ring, 5 ms links.
    topo = ring_topology(6, latency_ms=5.0)
    topo.set_controller("n0")

    # 2. A simulated deployment: P4 switches + controller + channels,
    #    and a live checker (deployment.checker) that re-checks
    #    consistency at every rule change.
    deployment = build_p4update_network(topo, params=SimParams(seed=42))

    # 3. The trace hands each rule change to its subscribers as it
    #    happens; keep them in a list to print the installation order
    #    later.
    rule_changes = []
    deployment.network.trace.subscribe(rule_changes.append, ["rule_change"])

    # 4. A flow from n0 to n3 on the clockwise path.
    flow = Flow.between(
        "n0", "n3", size=2.5, old_path=["n0", "n1", "n2", "n3"]
    )
    deployment.install_flow(flow)

    # 5. Reroute counter-clockwise with a single-layer update: the
    #    controller pushes UIMs; switches verify and coordinate through
    #    UNMs entirely in the data plane.
    deployment.controller.update_flow(
        flow.flow_id, ["n0", "n5", "n4", "n3"], UpdateType.SINGLE
    )
    deployment.run()

    # 6. Results.
    print(f"update complete:  {deployment.controller.update_complete(flow.flow_id)}")
    print(f"update duration:  {deployment.controller.update_duration(flow.flow_id):.1f} ms")
    print(f"always consistent: {deployment.checker.ok}")
    walk, outcome = deployment.forwarding_state.walk(flow.flow_id)
    print(f"final path:       {' -> '.join(walk)}  ({outcome})")
    print("\nrule installation order (egress to ingress — that is SL's safety):")
    for event in rule_changes:
        print(f"  t={event.time:7.2f} ms  {event.node} -> {event.detail.get('next_hop')}")


if __name__ == "__main__":
    main()
