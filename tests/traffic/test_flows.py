"""Unit tests for flow specifications."""

import pytest

from repro.traffic.flows import Flow, FlowSet, flow_hash


def test_flow_hash_deterministic_and_directional():
    assert flow_hash("a", "b") == flow_hash("a", "b")
    assert flow_hash("a", "b") != flow_hash("b", "a")


def test_flow_hash_respects_space():
    assert 0 <= flow_hash("x", "y", space=128) < 128


def test_flow_between_builds_id():
    flow = Flow.between("a", "b", size=2.0)
    assert flow.flow_id == flow_hash("a", "b")
    assert flow.size == 2.0


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Flow(flow_id=1, src="a", dst="b", size=-1.0)


def test_path_endpoint_validation():
    with pytest.raises(ValueError):
        Flow(flow_id=1, src="a", dst="b", size=1.0, old_path=["a", "c"])
    with pytest.raises(ValueError):
        Flow(flow_id=1, src="a", dst="b", size=1.0, new_path=["c", "b"])


def test_path_length_validation():
    with pytest.raises(ValueError):
        Flow(flow_id=1, src="a", dst="a", size=1.0, old_path=["a"])


def test_path_loop_rejected():
    with pytest.raises(ValueError):
        Flow(
            flow_id=1, src="a", dst="d", size=1.0,
            old_path=["a", "b", "a", "d"],
        )


def test_old_and_new_edges():
    flow = Flow(
        flow_id=1, src="a", dst="d", size=1.0,
        old_path=["a", "b", "d"],
        new_path=["a", "c", "d"],
    )
    assert flow.old_edges() == [("a", "b"), ("b", "d")]
    assert flow.new_edges() == [("a", "c"), ("c", "d")]


def test_flowset_rejects_duplicates():
    flows = FlowSet([Flow(flow_id=1, src="a", dst="b", size=1.0)])
    with pytest.raises(ValueError):
        flows.add(Flow(flow_id=1, src="c", dst="d", size=1.0))


def test_flowset_lookup_and_len():
    flow = Flow(flow_id=9, src="a", dst="b", size=1.0)
    flows = FlowSet([flow])
    assert flows[9] is flow
    assert 9 in flows and 10 not in flows
    assert len(flows) == 1


def test_link_load_aggregates_by_undirected_link():
    flows = FlowSet([
        Flow(flow_id=1, src="a", dst="c", size=2.0, old_path=["a", "b", "c"]),
        Flow(flow_id=2, src="c", dst="a", size=3.0, old_path=["c", "b", "a"]),
    ])
    load = flows.link_load("old")
    assert load[frozenset(("a", "b"))] == 5.0
    assert load[frozenset(("b", "c"))] == 5.0


def test_link_load_which_validation():
    with pytest.raises(ValueError):
        FlowSet().link_load("future")


def test_feasible_checks_capacities():
    flows = FlowSet([
        Flow(flow_id=1, src="a", dst="b", size=6.0, old_path=["a", "b"]),
    ])
    assert flows.feasible({frozenset(("a", "b")): 10.0}, "old")
    assert not flows.feasible({frozenset(("a", "b")): 5.0}, "old")
    # Missing capacity entries are treated as unconstrained.
    assert flows.feasible({}, "old")
