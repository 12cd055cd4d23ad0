#!/usr/bin/env python3
"""Local verification under fire — corrupted and dropped notifications.

Deploys the Fig. 1 dual-layer update while a fault injector corrupts
UNM distances in flight and drops a fraction of control messages.
Every corrupted notification is rejected locally (Alg. 1/2 distance
checks) and reported to the controller as an alarm; the §11 recovery
re-triggers lost notifications.  The network converges to the intended
path without ever becoming inconsistent.

Run:  python examples/verification_rejects_attack.py
"""

import numpy as np

from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.params import SimParams
from repro.sim.faults import FaultModel
from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH, fig1_topology
from repro.traffic.flows import Flow


def corrupt_distance(packet):
    """Flip the new-distance field of a UNM in flight."""
    if packet.has_valid("unm"):
        header = packet.header("unm")
        header["new_distance"] = header["new_distance"] + 3
    return packet


def main() -> None:
    topo = fig1_topology()
    deployment = build_p4update_network(topo, params=SimParams(seed=3))

    # Corrupt 30% of data-plane messages; §11 recovery handles losses.
    deployment.network.fault_model = FaultModel(
        rng=np.random.default_rng(99),
        corrupt_prob=0.3,
        corruptor=corrupt_distance,
        selector=lambda m: hasattr(m, "has_valid") and m.has_valid("unm"),
    )
    for switch in deployment.switches.values():
        switch.unm_timeout_ms = 400.0     # §11 UNM-loss watchdog

    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    deployment.install_flow(flow)
    deployment.controller.update_flow(
        flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL
    )
    deployment.run(until=20_000.0)

    alarms = deployment.controller.alarms
    walk, outcome = deployment.forwarding_state.walk(flow.flow_id)
    print(f"alarms raised by local verification: {len(alarms)}")
    for alarm in alarms[:5]:
        print(f"  {alarm.reporter}: {alarm.reason[:70]}")
    print(f"network stayed consistent: {deployment.checker.ok}")
    print(f"flow still deliverable:    {outcome == 'delivered'}")
    print(f"converged to new path:     {walk == list(FIG1_NEW_PATH)}")


if __name__ == "__main__":
    main()
