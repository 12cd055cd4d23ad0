"""Unit tests for the scenario builders themselves."""

import numpy as np
import pytest

from repro.core.segmentation import compute_segments
from repro.harness.scenarios import (
    FastForwardScenario,
    InconsistentUpdateScenario,
    fig1_style_reroute,
    multi_flow_scenario,
    single_flow_scenario,
)
from repro.topo import (
    attmpls_topology,
    b4_topology,
    chinanet_topology,
    fig1_topology,
    internet2_topology,
    line_topology,
)


@pytest.mark.parametrize(
    "builder",
    [b4_topology, internet2_topology, attmpls_topology, chinanet_topology],
)
def test_single_flow_builder_triggers_segmentation_everywhere(builder):
    scenario = single_flow_scenario(builder(), np.random.default_rng(0))
    flow = scenario.flows[0]
    segments = compute_segments(flow.old_path, flow.new_path)
    assert any(not s.forward for s in segments), (
        f"{builder.__name__}: no backward segment — DL has nothing to do"
    )


def test_fig1_style_reroute_produces_valid_path():
    topo = internet2_topology()
    old = topo.shortest_path("newyork", "sunnyvale")
    new = fig1_style_reroute(topo, old)
    assert new is not None
    assert new[0] == old[0] and new[-1] == old[-1]
    assert len(set(new)) == len(new), "must be a simple path"
    for a, b in zip(new, new[1:]):
        assert b in topo.adj[a], f"missing edge {a}-{b}"


def test_fig1_style_reroute_none_on_line():
    """A line has no alternative legs at all."""
    topo = line_topology(6)
    old = topo.shortest_path("n0", "n5")
    assert fig1_style_reroute(topo, old) is None


def test_fig1_style_reroute_short_path_rejected():
    topo = internet2_topology()
    assert fig1_style_reroute(topo, ["newyork", "chicago"]) is None


def test_single_flow_scenario_uses_paper_paths_on_fig1():
    scenario = single_flow_scenario(fig1_topology())
    assert scenario.flows[0].old_path == ["v0", "v4", "v2", "v7"]
    assert len(scenario.flows[0].new_path) == 8


def test_multi_flow_flows_have_distinct_ids():
    scenario = multi_flow_scenario(b4_topology(), np.random.default_rng(4))
    ids = [f.flow_id for f in scenario.flows]
    assert len(set(ids)) == len(ids)


def test_multi_flow_all_flows_reroutable():
    scenario = multi_flow_scenario(internet2_topology(), np.random.default_rng(5))
    for flow in scenario.flows:
        assert flow.old_path != flow.new_path
        assert flow.size > 0


def test_multi_flow_regeneration_is_bounded():
    """An infeasible topology must raise, not loop forever."""
    # Demanding 500% utilisation makes the new paths permanently
    # infeasible; the builder must give up cleanly after max_attempts.
    topo = b4_topology(capacity=1.0)
    with pytest.raises(RuntimeError):
        multi_flow_scenario(
            topo, np.random.default_rng(0), utilisation=5.0, max_attempts=3
        )


def test_adversarial_scenarios_defaults():
    fig2 = InconsistentUpdateScenario()
    assert fig2.config_a[0] == "v0" and fig2.config_a[-1] == "v4"
    assert fig2.b_delay_ms > 1000     # long enough for TTL deaths
    fig4 = FastForwardScenario()
    assert fig4.initial[0] == fig4.u2[0] == fig4.u3[0]
    assert fig4.initial[-1] == fig4.u2[-1] == fig4.u3[-1]
