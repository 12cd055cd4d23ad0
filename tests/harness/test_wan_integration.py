"""Integration smoke tests on the remaining WAN topologies (AttMpls,
Chinanet) — the Fig. 8 topologies must also work as live substrates."""

import numpy as np
import pytest

from repro.harness.experiment import run_experiment
from repro.harness.scenarios import multi_flow_scenario, single_flow_scenario
from repro.params import SimParams
from repro.topo.attmpls import attmpls_topology
from repro.topo.chinanet import chinanet_topology


@pytest.mark.parametrize("builder", [attmpls_topology, chinanet_topology])
def test_single_flow_update_on_large_wan(builder):
    scenario = single_flow_scenario(builder(), np.random.default_rng(0))
    result = run_experiment("p4update", scenario, params=SimParams(seed=0))
    assert result.completed
    assert result.consistency_ok


@pytest.mark.parametrize("builder", [attmpls_topology, chinanet_topology])
def test_multi_flow_update_on_large_wan(builder):
    scenario = multi_flow_scenario(builder(), np.random.default_rng(1))
    assert len(scenario.flows) >= builder().num_nodes() // 2
    result = run_experiment("p4update-sl", scenario, params=SimParams(seed=1))
    assert result.completed
    assert result.consistency_ok


def test_chinanet_all_systems_agree_on_completion():
    scenario = single_flow_scenario(chinanet_topology(), np.random.default_rng(2))
    for system in ("p4update-dl", "ezsegway", "central"):
        result = run_experiment(system, scenario, params=SimParams(seed=2))
        assert result.completed, system
        assert result.consistency_ok, system
