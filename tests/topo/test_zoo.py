"""Unit tests for the Topology Zoo GraphML loader."""

import io

import pytest

from repro.topo.zoo import (
    SAMPLE_GRAPHML,
    ZooParseError,
    load_graphml,
    sample_zoo_topology,
)


def test_sample_loads():
    topo = sample_zoo_topology()
    assert topo.num_nodes() == 4
    assert topo.num_edges() == 4
    assert set(topo.nodes) == {"Vienna", "Munich", "Zurich", "Milan"}


def test_sample_latencies_are_geographic():
    topo = sample_zoo_topology()
    # Vienna-Munich is ~350 km -> ~1.8 ms at 200 km/ms.
    assert 1.0 < topo.latency("Vienna", "Munich") < 3.0


def test_load_from_file(tmp_path):
    path = tmp_path / "net.graphml"
    path.write_text(SAMPLE_GRAPHML)
    topo = load_graphml(str(path), name="fromfile")
    assert topo.name == "fromfile"
    assert topo.num_nodes() == 4


def test_load_from_filelike():
    topo = load_graphml(io.StringIO(SAMPLE_GRAPHML))
    assert topo.num_nodes() == 4


def test_self_loops_and_multiedges_collapsed():
    doc = SAMPLE_GRAPHML.replace(
        '<edge source="0" target="3"/>',
        '<edge source="0" target="3"/>'
        '<edge source="3" target="0"/>'
        '<edge source="2" target="2"/>',
    )
    topo = load_graphml(doc)
    assert topo.num_edges() == 4        # duplicate + self-loop dropped


def test_missing_coordinates_fall_back_to_neighbours():
    doc = SAMPLE_GRAPHML.replace(
        '<node id="3"><data key="d0">Milan</data>\n'
        '      <data key="d1">45.46</data><data key="d2">9.19</data></node>',
        '<node id="3"><data key="d0">Milan</data></node>',
    )
    topo = load_graphml(doc)
    assert "Milan" in topo.coordinates
    assert topo.latency("Zurich", "Milan") > 0


def test_duplicate_labels_disambiguated():
    doc = SAMPLE_GRAPHML.replace(">Munich<", ">Vienna<", 1)
    topo = load_graphml(doc)
    assert topo.num_nodes() == 4
    assert len(set(topo.nodes)) == 4


def test_no_graph_element_rejected():
    with pytest.raises(ZooParseError):
        load_graphml(
            "<graphml xmlns='http://graphml.graphdrawing.org/xmlns'></graphml>"
        )


def test_edge_to_unknown_node_rejected():
    doc = SAMPLE_GRAPHML.replace(
        '<edge source="0" target="1"/>', '<edge source="0" target="99"/>'
    )
    with pytest.raises(ZooParseError):
        load_graphml(doc)


def test_disconnected_keeps_largest_component():
    doc = SAMPLE_GRAPHML.replace(
        "</graph>",
        '<node id="9"><data key="d0">Island</data>'
        '<data key="d1">0.0</data><data key="d2">0.0</data></node>'
        '<node id="10"><data key="d0">Rock</data>'
        '<data key="d1">1.0</data><data key="d2">1.0</data></node>'
        '<edge source="9" target="10"/></graph>',
    )
    topo = load_graphml(doc)
    assert topo.num_nodes() == 4
    assert "Island" not in topo.nodes


def test_zoo_topology_usable_in_experiment():
    """A loaded Zoo topology drives a full P4Update run."""
    from repro.core.messages import UpdateType
    from repro.harness.build import build_p4update_network
    from repro.params import SimParams
    from repro.traffic.flows import Flow

    topo = sample_zoo_topology()
    dep = build_p4update_network(topo, params=SimParams(seed=0))
    flow = Flow.between(
        "Vienna", "Zurich", size=1.0, old_path=["Vienna", "Munich", "Zurich"]
    )
    dep.install_flow(flow)
    dep.controller.update_flow(
        flow.flow_id, ["Vienna", "Milan", "Zurich"], UpdateType.SINGLE
    )
    dep.run()
    assert dep.controller.update_complete(flow.flow_id)
    assert dep.checker.ok
