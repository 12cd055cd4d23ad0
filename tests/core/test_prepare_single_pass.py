"""``P4UpdateController.prepare_update`` on the paper's Fig. 1 and on
the rejections it names, and the walk's cost.  What it prepares for
every path pair of a small grid is held to the spec in
``tests/core/test_prepare_spec.py``."""

import pytest

from repro.core.controller import P4UpdateController
from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.topo.graph import Topology
from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH
from repro.traffic.flows import Flow

FLOW_ID = 7


def _controller(old, new):
    """A controller on a connected network that has a link under every
    hop of either path, with ``old`` as the flow's current path."""
    hops = {frozenset(hop) for path in (old, new) for hop in zip(path, path[1:])}
    used = sorted({node for hop in hops for node in hop} | {*old, *new, "p", "q"})
    # A spine keeps the graph connected whatever the paths look like.
    hops |= {frozenset(pair) for pair in zip(used, used[1:])}
    edges = sorted(tuple(sorted(hop)) for hop in hops if len(hop) == 2)
    topo = Topology.from_edges("random", [(a, b, 1.0) for a, b in edges])
    controller = P4UpdateController("single-pass", topo)
    controller.network = build_p4update_network(topo).network
    record = controller.register_flow(
        Flow(FLOW_ID, used[0], used[-1], 2.5, old_path=[used[0], used[-1]])
    )
    # Straight into the Flow DB: Flow() itself refuses a bad path.
    record.current_path = list(old)
    return controller


@pytest.mark.parametrize(
    "old, new, update_type, message",
    [
        (["a", "b"], ["a"], UpdateType.DUAL, "a path needs at least two nodes"),
        (["a", "b", "c"], ["a", "b", "a", "c"], None,
         "path revisits a node: ['a', 'b', 'a', 'c']"),
        (["a", "b", "a", "c"], ["a", "b", "c"], UpdateType.DUAL,
         "path revisits a node: ['a', 'b', 'a', 'c']"),
        (["a", "b", "c"], ["a", "b", "d"], UpdateType.DUAL,
         "old and new paths must share ingress and egress"),
    ],
)
def test_rejection_texts(old, new, update_type, message):
    single = _controller(old, new)
    with pytest.raises(ValueError) as excinfo:
        single.prepare_update(FLOW_ID, list(new), update_type)
    assert str(excinfo.value) == message


def test_fig1_roles():
    """Paper §3.2 / §8 on Fig. 1: G = {v0, v2, v4, v7}; v2 and v4 close
    a segment and originate second-layer UNMs, v7 the first-layer one."""
    single = _controller(FIG1_OLD_PATH, FIG1_NEW_PATH)
    uims = single.prepare_update(FLOW_ID, list(FIG1_NEW_PATH)).uims
    assert [uim.target for uim in uims] == list(FIG1_NEW_PATH)
    assert [uim.new_distance for uim in uims] == [7, 6, 5, 4, 3, 2, 1, 0]
    assert [uim.target for uim in uims if uim.is_gateway] == ["v0", "v2", "v4", "v7"]
    assert [uim.target for uim in uims if uim.is_segment_egress] == ["v2", "v4"]
    assert [uim.target for uim in uims if uim.is_flow_egress] == ["v7"]
    assert [uim.target for uim in uims if uim.is_ingress] == ["v0"]
    assert uims[0].child_port is None and uims[-1].egress_port == 511
    single_layer = single.prepare_update(
        FLOW_ID, list(FIG1_NEW_PATH), UpdateType.SINGLE
    ).uims
    assert not any(uim.is_gateway or uim.is_segment_egress for uim in single_layer)


def test_one_request_analyses_its_path_pair_once(monkeypatch):
    """``update_type=None``: the §7.5 verdict and the DL roles come from
    one ``old_distances`` of the pair (the parent ran ``compute_segments``
    for the strategy and again for the roles)."""
    import repro.core.controller as controller_module
    import repro.core.strategy as strategy_module
    from repro.harness.prep import count_calls

    single = _controller(FIG1_OLD_PATH, FIG1_NEW_PATH)
    analyses = []
    plain = controller_module.old_distances

    def counting(old_path, new_path):
        analyses.append((tuple(old_path), tuple(new_path)))
        return plain(old_path, new_path)

    monkeypatch.setattr(controller_module, "old_distances", counting)
    monkeypatch.setattr(strategy_module, "old_distances", counting)
    prepared = single.prepare_update(FLOW_ID, list(FIG1_NEW_PATH))
    assert prepared.update_type is UpdateType.DUAL
    assert analyses == [(tuple(FIG1_OLD_PATH), tuple(FIG1_NEW_PATH))]
    monkeypatch.undo()
    # And the walk itself stays a walk: one ``UIM`` per node plus a fixed
    # handful of Python calls, not a round of helpers per node.
    calls = count_calls(
        lambda: single.prepare_update(
            FLOW_ID, list(FIG1_NEW_PATH), UpdateType.DUAL
        )
    )
    assert calls <= len(FIG1_NEW_PATH) + 8
