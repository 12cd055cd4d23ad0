"""Chaos test: a realistic multi-flow WAN update under a hostile
network — random drops, delays and duplicates on both planes — with
the §11 recovery machinery enabled.  Consistency must hold throughout
and the updates must still complete.
"""

import numpy as np
import pytest

from repro.harness.build import build_p4update_network
from repro.harness.scenarios import multi_flow_scenario
from repro.params import SimParams
from repro.sim.faults import FaultModel
from repro.topo.b4 import b4_topology


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_multi_flow_update_survives_chaos(seed):
    scenario = multi_flow_scenario(b4_topology(), np.random.default_rng(seed))
    params = SimParams(
        seed=seed,
        controller_update_timeout_ms=800.0,
        max_sim_time_ms=120_000.0,
    )
    dep = build_p4update_network(scenario.topology, params=params)
    dep.network.fault_model = FaultModel(
        rng=np.random.default_rng(seed ^ 0xC4405),
        drop_prob=0.05,
        delay_prob=0.2,
        delay_ms=30.0,
        duplicate_prob=0.1,
        selector=lambda m: hasattr(m, "has_valid") and not m.has_valid("probe"),
    )
    dep.network.control_fault_model = FaultModel(
        rng=np.random.default_rng(seed ^ 0x51AB),
        delay_prob=0.3,
        delay_ms=50.0,
        duplicate_prob=0.1,
    )
    for switch in dep.switches.values():
        switch.unm_timeout_ms = 400.0

    for flow in scenario.flows:
        dep.install_flow(flow)
    for flow in scenario.flows:
        dep.controller.update_flow(flow.flow_id, list(flow.new_path))
    dep.run()

    assert dep.checker.ok, dep.checker.violations[:3]
    done = sum(dep.controller.update_complete(f.flow_id) for f in scenario.flows)
    assert done == len(scenario.flows), (
        f"only {done}/{len(scenario.flows)} flows completed under chaos"
    )
    # Every flow must end on its intended new path.
    for flow in scenario.flows:
        walk, outcome = dep.forwarding_state.walk(flow.flow_id)
        assert outcome == "delivered"
        assert walk == flow.new_path, (flow.src, flow.dst)
