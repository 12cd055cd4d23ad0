"""``P4UpdateController.prepare_update`` is one walk over P_n; what it
must return is the old composition of helpers, kept verbatim in
``tests/core/reference_prepare.py``.  Both bodies run on their own
controller over one network and must agree on every UIM field, the
chosen update type, the Flow-DB side effects and — for a bad path pair
— the exception, its text and whether a version number was spent."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.controller import P4UpdateController
from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.topo.graph import Topology
from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH
from repro.traffic.flows import Flow
from tests.core.reference_prepare import reference_prepare_update

FLOW_ID = 7
UPDATE_TYPES = (None, UpdateType.SINGLE, UpdateType.DUAL)
STAGE_TAGS = (None, 0, 1)
NODES = [f"x{i}" for i in range(9)]


def _controllers(old, new, extra_edges):
    """Two controllers (single pass, reference) on one connected network
    that has a link under every hop of either path."""
    hops = {frozenset(hop) for path in (old, new) for hop in zip(path, path[1:])}
    hops |= {frozenset(edge) for edge in extra_edges}
    used = sorted({node for hop in hops for node in hop} | {*old, *new, "p", "q"})
    # A spine keeps the graph connected whatever the paths look like.
    hops |= {frozenset(pair) for pair in zip(used, used[1:])}
    edges = sorted(tuple(sorted(hop)) for hop in hops if len(hop) == 2)
    topo = Topology.from_edges("random", [(a, b, 1.0) for a, b in edges])
    network = build_p4update_network(topo).network
    pair = []
    for name in ("single-pass", "reference"):
        controller = P4UpdateController(name, topo)
        controller.network = network
        record = controller.register_flow(
            Flow(FLOW_ID, used[0], used[-1], 2.5, old_path=[used[0], used[-1]])
        )
        # Straight into the Flow DB: Flow() itself refuses a bad path.
        record.current_path = list(old)
        pair.append(controller)
    return pair


def _outcome(prepare, controller, new, update_type, stage_tag):
    try:
        prepared = prepare(
            FLOW_ID, list(new), update_type, stage_tag=stage_tag
        )
    except Exception as exc:  # noqa: BLE001 - the exception is the result
        prepared = (type(exc), str(exc))
    record = controller.flow_db[FLOW_ID]
    return (
        prepared,
        record.pending_path,
        record.pending_version,
        controller.versions.current(FLOW_ID),
        controller._prepared.get((FLOW_ID, record.pending_version)),
    )


def assert_same_preparation(old, new, update_type, stage_tag, extra_edges=()):
    single, reference = _controllers(old, new, extra_edges)
    got = _outcome(single.prepare_update, single, new, update_type, stage_tag)
    want = _outcome(
        lambda *args, **kwargs: reference_prepare_update(reference, *args, **kwargs),
        reference, new, update_type, stage_tag,
    )
    assert got == want
    prepared = got[0]
    if not isinstance(prepared, tuple):
        # Tuple equality lets True == 1 through; the field types may not drift.
        assert [list(map(type, uim)) for uim in prepared.uims] == [
            list(map(type, uim)) for uim in want[0].uims
        ]
    return prepared


@st.composite
def simple_pair(draw):
    """Simple old/new paths sharing both endpoints, plus spare links."""
    src, dst, *middle = draw(st.permutations(NODES))
    mids = st.lists(st.sampled_from(middle), unique=True, max_size=len(middle))
    old = [src] + draw(mids) + [dst]
    new = [src] + draw(mids) + [dst]
    spare = draw(st.lists(
        st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)), max_size=6
    ))
    return old, new, spare


@given(simple_pair(), st.sampled_from(UPDATE_TYPES), st.sampled_from(STAGE_TAGS))
@example((list(FIG1_OLD_PATH), list(FIG1_NEW_PATH), []), None, None)
@example((list(FIG1_OLD_PATH), list(FIG1_NEW_PATH), []), UpdateType.DUAL, 1)
# Pure forward: the shared nodes keep their order.
@example((["a", "b", "c", "d"], ["a", "x", "b", "y", "c", "d"], []), None, None)
@example((["a", "b", "c", "d"], ["a", "x", "b", "y", "c", "d"], []), UpdateType.DUAL, None)
# The endpoints are the only gateways.
@example((["a", "b", "c"], ["a", "x", "y", "c"], []), None, 0)
@example((["a", "b", "c"], ["a", "x", "y", "c"], []), UpdateType.DUAL, None)
# new == old.
@example((["a", "b", "c"], ["a", "b", "c"], []), None, None)
@example((["a", "b", "c"], ["a", "b", "c"], []), UpdateType.DUAL, None)
# Seven rule changes, all forward: over the §9.1 threshold.
@example((["a", "h"], ["a", "b", "c", "d", "e", "f", "g", "h"], []), None, None)
@settings(max_examples=500, deadline=None)
def test_single_pass_equals_the_helper_composition(pair, update_type, stage_tag):
    old, new, spare = pair
    prepared = assert_same_preparation(old, new, update_type, stage_tag, spare)
    assert not isinstance(prepared, tuple), prepared      # valid pairs prepare
    assert prepared.update_type in (UpdateType.SINGLE, UpdateType.DUAL)


_BAD_PATH = st.lists(st.sampled_from(NODES[:5]), min_size=1, max_size=5)


@given(_BAD_PATH, _BAD_PATH, st.sampled_from(UPDATE_TYPES), st.sampled_from(STAGE_TAGS))
@example(["a", "b"], ["a"], UpdateType.DUAL, None)              # short new path
@example(["a"], ["a", "b"], None, None)                          # short old path
@example(["a", "b", "c"], ["a", "b", "a", "c"], UpdateType.SINGLE, None)
@example(["a", "b", "a", "c"], ["a", "b", "c"], UpdateType.DUAL, None)
@example(["a", "b", "a", "c"], ["a", "b", "c"], UpdateType.SINGLE, None)
@example(["a", "b", "c"], ["a", "b", "d"], None, None)           # egress differs
@example(["a", "b", "c"], ["d", "b", "c"], UpdateType.DUAL, None)
@example(["a", "b", "c"], ["d", "b", "c"], UpdateType.SINGLE, None)
@settings(max_examples=500, deadline=None)
def test_bad_path_pairs_are_rejected_alike(old, new, update_type, stage_tag):
    """Arbitrary node sequences: short, revisiting, mismatched endpoints
    — and the pairs that happen to be fine."""
    assert_same_preparation(old, new, update_type, stage_tag)


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
    single, _ = _controllers(old, new, ())
    with pytest.raises(ValueError) as excinfo:
        single.prepare_update(FLOW_ID, list(new), update_type)
    assert str(excinfo.value) == message


def test_fig1_roles():
    """Paper §3.2 / §8 on Fig. 1: G = {v0, v2, v4, v7}; v2 and v4 close
    a segment and originate second-layer UNMs, v7 the first-layer one."""
    single, _ = _controllers(FIG1_OLD_PATH, FIG1_NEW_PATH, ())
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

    single, _ = _controllers(FIG1_OLD_PATH, FIG1_NEW_PATH, ())
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
