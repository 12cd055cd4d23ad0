"""Integration tests for scenario builders and the experiment runner."""

import numpy as np
import pytest

from repro.core.segmentation import compute_segments
from repro.harness.experiment import run_experiment
from repro.harness.scenarios import (
    multi_flow_scenario,
    single_flow_scenario,
)
from repro.params import DelayDistribution, SimParams
from repro.topo.b4 import b4_topology
from repro.topo.internet2 import internet2_topology
from repro.topo.synthetic import fig1_topology
from repro.traffic.flows import FlowSet


def fast_params(seed=0):
    return SimParams(
        seed=seed,
        pipeline_delay=DelayDistribution.constant(0.1),
        rule_install_delay=DelayDistribution.constant(1.0),
        controller_service=DelayDistribution.constant(0.3),
    )


# -- scenario builders ---------------------------------------------------------

def test_single_flow_scenario_fig1_uses_paper_paths():
    scenario = single_flow_scenario(fig1_topology())
    flow = scenario.flows[0]
    assert flow.old_path == ["v0", "v4", "v2", "v7"]
    assert len(flow.new_path) == 8


def test_single_flow_scenario_b4_triggers_segmentation():
    scenario = single_flow_scenario(b4_topology(), np.random.default_rng(1))
    flow = scenario.flows[0]
    segments = compute_segments(flow.old_path, flow.new_path)
    assert len(segments) >= 1
    assert len(flow.old_path) >= 3, "diameter pair should be far apart"


def test_multi_flow_scenario_feasible_near_capacity():
    topo = internet2_topology()
    scenario = multi_flow_scenario(topo, np.random.default_rng(2))
    assert len(scenario.flows) >= 10
    flow_set = FlowSet(scenario.flows)
    for which in ("old", "new"):
        loads = flow_set.link_load(which, directed=True)
        for (a, b), load in loads.items():
            assert load <= topo.capacity(a, b) + 1e-6
    # Near capacity: the most loaded link should exceed 80% utilisation.
    peak = max(
        load / topo.capacity(a, b)
        for (a, b), load in flow_set.link_load("old", directed=True).items()
    )
    peak_new = max(
        load / topo.capacity(a, b)
        for (a, b), load in flow_set.link_load("new", directed=True).items()
    )
    assert max(peak, peak_new) == pytest.approx(0.9, abs=0.01)


def test_multi_flow_scenario_deterministic_per_seed():
    topo = b4_topology()
    s1 = multi_flow_scenario(topo, np.random.default_rng(7))
    s2 = multi_flow_scenario(topo, np.random.default_rng(7))
    assert [f.flow_id for f in s1.flows] == [f.flow_id for f in s2.flows]
    assert [f.size for f in s1.flows] == [f.size for f in s2.flows]


# -- experiment runner -------------------------------------------------------------

@pytest.mark.parametrize("system", ["p4update", "p4update-sl", "p4update-dl",
                                    "ezsegway", "central"])
def test_all_systems_complete_fig1_single_flow(system):
    scenario = single_flow_scenario(fig1_topology())
    result = run_experiment(system, scenario, params=fast_params())
    assert result.completed, f"{system} did not converge"
    assert result.consistency_ok, f"{system} violated consistency"
    assert result.total_update_time_ms > 0


def test_systems_ordering_on_fig1_single_flow():
    """Paper Fig. 7a shape: DL-P4Update beats ez-Segway and Central.

    Means over 20 runs with the paper's exp(100) ms install delays;
    the Fig. 7a claims in ``benchmarks/claims.py`` judge the full
    sweep, here we check the robust part.
    """
    params = SimParams(seed=0).with_dionysus_install_delay()
    results = {}
    for system in ("p4update-dl", "ezsegway", "central"):
        runs = [
            run_experiment(
                system, single_flow_scenario(fig1_topology()),
                params=params.with_seed(run),
            )
            for run in range(20)
        ]
        assert all(r.completed for r in runs), system
        assert all(r.consistency_ok for r in runs), system
        results[system] = np.mean([r.total_update_time_ms for r in runs])
    assert results["p4update-dl"] < results["ezsegway"]
    assert results["p4update-dl"] < results["central"]


def test_multi_flow_experiment_on_b4():
    """Multi-flow reroutes on B4 (local 2nd-shortest detours; rings
    with complementary reroutes can deadlock — the NP-hard 15-puzzle
    case the paper's heuristic does not claim to solve)."""
    scenario = multi_flow_scenario(b4_topology(), np.random.default_rng(3))
    result = run_experiment("p4update-sl", scenario, params=fast_params())
    assert result.completed
    assert result.consistency_ok
    assert len(result.per_flow_ms) == len(scenario.flows)


def test_unknown_system_rejected():
    scenario = single_flow_scenario(fig1_topology())
    with pytest.raises(ValueError):
        run_experiment("quantum", scenario)


def test_prep_time_measured():
    scenario = single_flow_scenario(fig1_topology())
    result = run_experiment("p4update-dl", scenario, params=fast_params())
    assert result.prep_time_s > 0
