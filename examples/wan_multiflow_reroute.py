#!/usr/bin/env python3
"""WAN traffic engineering — rerouting a near-capacity B4 workload.

Generates a gravity-model workload on Google's B4 topology (one flow
per site, sizes scaled so the hottest link sits at 90 % utilisation),
then moves every flow from its shortest path to its 2nd-shortest path
at once.  The §7.4 data-plane scheduler orders the moves so that no
link ever exceeds its capacity — verified live at every rule change.

Run:  python examples/wan_multiflow_reroute.py
"""

import numpy as np

from repro.harness.build import build_p4update_network
from repro.harness.scenarios import multi_flow_scenario
from repro.params import SimParams
from repro.topo.b4 import b4_topology


def main() -> None:
    topo = b4_topology()
    scenario = multi_flow_scenario(topo, np.random.default_rng(7))
    print(f"topology: B4 ({topo.num_nodes()} sites, {topo.num_edges()} links)")
    print(f"workload: {len(scenario.flows)} flows, gravity-model sizes")
    hottest = max(
        load / topo.capacity(a, b)
        for (a, b), load in __import__("repro.traffic.flows", fromlist=["FlowSet"])
        .FlowSet(scenario.flows)
        .link_load("old", directed=True)
        .items()
    )
    print(f"hottest link utilisation before the update: {hottest:.0%}\n")

    deployment = build_p4update_network(topo, params=SimParams(seed=7))
    for flow in scenario.flows:
        deployment.install_flow(flow)

    for flow in scenario.flows:
        deployment.controller.update_flow(flow.flow_id, list(flow.new_path))
    deployment.run()

    done = sum(
        deployment.controller.update_complete(f.flow_id) for f in scenario.flows
    )
    durations = [
        deployment.controller.update_duration(f.flow_id)
        for f in scenario.flows
        if deployment.controller.update_duration(f.flow_id) is not None
    ]
    deferrals = sum(
        sw.program.stats["capacity_deferrals"]
        for sw in deployment.switches.values()
    )
    print(f"flows updated:        {done}/{len(scenario.flows)}")
    print(f"slowest flow update:  {max(durations):.0f} ms")
    print(f"scheduler deferrals:  {deferrals} "
          f"(moves that waited for capacity to free)")
    print(f"congestion-free at every instant: {deployment.checker.ok}")
    for flow in scenario.flows[:5]:
        walk, outcome = deployment.forwarding_state.walk(flow.flow_id)
        print(f"  {flow.src:>12s} -> {flow.dst:<12s} now via "
              f"{' -> '.join(walk[1:-1]) or '(direct)'} [{outcome}]")


if __name__ == "__main__":
    main()
