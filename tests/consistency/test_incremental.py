"""The incremental ``LiveChecker`` against the full-state reference.

After every trace record the two must hold byte-equal violation lists
(``repr``: time, kind, flow, detail) and equal armed sets — under
random programs of state mutations and records, and in the cases the
walk through the old code turned up.
"""

from hypothesis import given, settings, strategies as st

from repro.consistency import ForwardingState, LiveChecker
from repro.sim.trace import (
    KIND_LINK_DOWN,
    KIND_MSG_SEND,
    KIND_RULE_CHANGE,
    KIND_SWITCH_CRASH,
    Trace,
)
from tests.consistency.reference_checker import ReferenceLiveChecker

NODES = ["a", "b", "c", "d", "e"]


class Rig:
    """One state and trace watched by any number of checker pairs."""

    def __init__(self):
        self.state = ForwardingState()
        self.trace = Trace()
        self.pairs = []

    def attach(self):
        live = LiveChecker(self.state, self.trace)
        self.pairs.append(ReferenceLiveChecker(self.state, self.trace, shadows=live))
        return live

    def record(self, kind, node, time=None, **detail):
        when = float(len(self.trace)) if time is None else time
        self.trace.record(when, kind, node, **detail)
        for reference in self.pairs:
            reference.assert_agrees()

    def rule_change(self, node="a", **detail):
        self.record(KIND_RULE_CHANGE, node, **detail)

    def install(self, flow_id, path, size=1.0):
        self.state.register_flow(flow_id, path[0], path[-1], size)
        for a, b in zip(path, path[1:]):
            self.state.set_rule(flow_id, a, b)


# -- random programs ---------------------------------------------------------

nodes = st.sampled_from(NODES)
flow_ids = st.integers(min_value=1, max_value=4)
# Sizes whose sum depends on the order of addition.
sizes = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.0, 2.5, 1e16])
capacities = st.sampled_from([0.3, 0.6, 1.0, 3.0, 1e16])

mutations = st.one_of(
    st.tuples(st.just("flow"), flow_ids, nodes, nodes, sizes),
    # Register and install a whole path, so that flows often deliver.
    st.tuples(
        st.just("path"), flow_ids,
        st.lists(nodes, min_size=2, max_size=4, unique=True), sizes,
    ),
    st.tuples(
        st.just("tree"), flow_ids,
        st.lists(nodes, min_size=1, max_size=3, unique=True), nodes, sizes,
    ),
    st.tuples(st.just("rule"), flow_ids, nodes, st.one_of(st.none(), nodes)),
    st.tuples(st.just("rule"), flow_ids, nodes, st.one_of(st.none(), nodes)),
    st.tuples(st.just("rule"), flow_ids, nodes, st.one_of(st.none(), nodes)),
    st.tuples(st.just("capacity"), nodes, nodes, capacities),
    # Every link at once, so that shared edges often overload.
    st.tuples(st.just("capacities"), capacities),
)
records = st.one_of(
    st.tuples(st.just(KIND_RULE_CHANGE), nodes, st.none()),
    st.tuples(st.just(KIND_RULE_CHANGE), nodes, st.none()),
    st.tuples(st.just(KIND_LINK_DOWN), nodes, st.one_of(st.none(), nodes)),
    st.tuples(st.just(KIND_SWITCH_CRASH), nodes, st.none()),
    st.tuples(st.just(KIND_MSG_SEND), nodes, st.none()),
)
# k mutations, then 0..k rule_change records (a tag flip, a crash).
batches = st.lists(mutations, min_size=1, max_size=5).flatmap(
    lambda ms: st.tuples(
        st.just("batch"), st.just(ms), st.integers(min_value=0, max_value=len(ms))
    )
)
steps = st.one_of(
    mutations,
    records.map(lambda r: ("record", *r)),
    batches,
    st.just(("attach",)),
)


def mutate(state, op):
    if op[0] == "flow":
        state.register_flow(op[1], op[2], op[3], op[4])
    elif op[0] == "path":
        state.register_flow(op[1], op[2][0], op[2][-1], op[3])
        for a, b in zip(op[2], op[2][1:]):
            state.set_rule(op[1], a, b)
    elif op[0] == "tree":
        state.register_tree(op[1], op[2], op[3], op[4])
    elif op[0] == "rule":
        state.set_rule(op[1], op[2], op[3])
    elif op[0] == "capacity":
        state.set_capacity(op[1], op[2], op[3])
    else:
        for i, a in enumerate(NODES):
            for b in NODES[i + 1:]:
                state.set_capacity(a, b, op[1])


@settings(max_examples=300, deadline=None)
@given(attach_first=st.booleans(), program=st.lists(steps, max_size=40))
def test_random_programs_agree_with_reference(attach_first, program):
    rig = Rig()
    if attach_first:
        rig.attach()
    for step in program:
        if step[0] == "attach":
            if len(rig.pairs) < 3:
                rig.attach()
        elif step[0] == "record":
            _, kind, node, peer = step
            detail = {} if peer is None else {"peer": peer}
            rig.record(kind, node, **detail)
        elif step[0] == "batch":
            for op in step[1]:
                mutate(rig.state, op)
            for _ in range(step[2]):
                rig.rule_change()
        else:
            mutate(rig.state, step)
    # A checker attached after everything else sees the same state.
    rig.attach()
    rig.rule_change()
    rig.record(KIND_SWITCH_CRASH, "c")
    rig.rule_change()


# -- the cases the old code turned up ----------------------------------------


def test_overload_persists_while_an_unrelated_flow_changes():
    rig = Rig()
    live = rig.attach()
    rig.install(1, ["a", "b", "c"], size=0.7)
    rig.install(2, ["a", "b", "c"], size=0.7)
    rig.install(3, ["d", "e"], size=0.1)
    rig.state.set_capacity("a", "b", 1.0)
    rig.rule_change()
    assert [v.kind for v in live.violations] == ["congestion"]
    # Flow 3 changes; the a->b overload is reported again, at the new time.
    rig.state.set_rule(3, "c", "e")
    rig.state.set_rule(3, "d", "c")
    rig.rule_change(flow=3)
    assert [(v.kind, v.time) for v in live.violations] == [
        ("congestion", 0.0), ("congestion", 1.0),
    ]
    # Raising the capacity (no rule touched) ends it; so does a member
    # flow leaving the edge.
    rig.state.set_capacity("a", "b", 2.0)
    rig.rule_change()
    assert len(live.violations) == 2
    rig.state.set_capacity("a", "b", 1.0)
    rig.rule_change()
    assert len(live.violations) == 3
    rig.state.set_rule(2, "d", "c")
    rig.state.set_rule(2, "a", "d")
    rig.rule_change(flow=2)
    assert len(live.violations) == 3


def test_reregistering_a_flow_with_a_different_size_reweighs_its_edges():
    rig = Rig()
    live = rig.attach()
    rig.install(1, ["a", "b", "c"], size=0.3)
    rig.install(2, ["a", "b"], size=0.3)
    rig.state.set_capacity("a", "b", 1.0)
    rig.rule_change()
    assert live.ok
    rig.state.register_flow(1, "a", "c", 0.9)   # same walk, heavier
    rig.rule_change()
    assert [v.detail for v in live.violations] == [
        "link a->b carries 1.200 > capacity 1.000"
    ]


def test_link_load_is_summed_in_flow_id_order():
    rig = Rig()
    live = rig.attach()
    # (1e16 + 1) + 1 == 1e16 but (1 + 1) + 1e16 > 1e16: adding flow 1's
    # size onto the running load of flows 2 and 3 would overload a->b,
    # summing in flow-id order (the reference) does not.
    rig.install(2, ["a", "b"], size=1.0)
    rig.install(3, ["a", "b"], size=1.0)
    rig.state.set_capacity("a", "b", 1e16)
    rig.rule_change()
    rig.install(1, ["a", "b"], size=1e16)
    rig.rule_change()
    assert live.ok
    rig.state.set_rule(1, "a", None)
    rig.rule_change()
    rig.state.set_rule(1, "a", "b")
    rig.rule_change()
    assert [v.kind for v in live.violations] == ["blackhole"]


def test_disarmed_flow_with_stale_rules_rearms_at_any_rule_change():
    rig = Rig()
    live = rig.attach()
    rig.install(1, ["a", "b", "c"])
    rig.install(2, ["d", "e"])
    rig.rule_change()
    assert live._armed == {(1, "a"), (2, "d")}
    rig.record(KIND_LINK_DOWN, "a", peer="b")
    assert live._armed == {(2, "d")}
    # Flow 1's rules still form a complete path, so a rule_change of
    # flow 2 re-arms it ...
    rig.state.set_rule(2, "d", "e")
    rig.rule_change(flow=2)
    assert (1, "a") in live._armed
    # ... and losing the path afterwards is a blackhole again.
    rig.state.set_rule(1, "b", None)
    rig.rule_change(flow=1)
    assert [v.kind for v in live.violations] == ["blackhole"]


def test_failure_under_a_lost_path_ends_the_blackhole_reports():
    rig = Rig()
    live = rig.attach()
    rig.install(1, ["a", "b", "c"])
    rig.rule_change()
    rig.state.set_rule(1, "b", None)
    rig.rule_change()
    rig.record(KIND_SWITCH_CRASH, "b")      # the walk a, b dies at b: disarmed
    rig.rule_change()
    assert [v.time for v in live.violations] == [1.0]
    assert live._armed == set()


def test_disarm_sees_mutations_that_had_no_event_but_does_not_arm():
    rig = Rig()
    live = rig.attach()
    rig.install(1, ["a", "b", "c"])
    rig.rule_change()
    # Rerouted off b without an event: the crash of b must not disarm it.
    rig.state.set_rule(1, "a", "d")
    rig.state.set_rule(1, "d", "c")
    rig.install(2, ["b", "e"])           # delivers, never seen by a rule_change
    rig.record(KIND_SWITCH_CRASH, "b")
    assert live._armed == {(1, "a")}
    rig.rule_change()
    assert live._armed == {(1, "a"), (2, "b")}


def test_loop_that_never_reaches_the_egress_is_reported_every_event():
    rig = Rig()
    live = rig.attach()
    rig.state.register_flow(1, "a", "e", 1.0)
    rig.state.set_rule(1, "a", "b")
    rig.state.set_rule(1, "b", "c")
    rig.state.set_rule(1, "c", "b")
    rig.install(2, ["d", "e"])
    rig.rule_change()
    rig.state.set_rule(2, "d", "e")
    rig.rule_change(flow=2)
    assert [(v.kind, v.flow_id) for v in live.violations] == [("loop", 1)] * 2
    assert live._armed == {(2, "d")}


def test_reregistering_a_flow_with_a_different_ingress():
    rig = Rig()
    live = rig.attach()
    rig.install(1, ["a", "b", "c"])
    rig.rule_change()
    rig.state.set_rule(1, "a", None)
    rig.rule_change()                       # blackhole from a
    rig.state.register_flow(1, "b", "c", 2.0)
    rig.rule_change()                       # delivered from b; a is history
    assert [v.kind for v in live.violations] == ["blackhole"]
    assert live._armed == {(1, "a"), (1, "b")}
    rig.record(KIND_SWITCH_CRASH, "d")      # walks the stale key too: not via d
    assert live._armed == {(1, "a"), (1, "b")}
    rig.state.register_flow(1, "a", "c", 2.0)
    rig.rule_change()                       # back at a, still armed, still lost
    assert [v.detail for v in live.violations[1:]] == [
        "established path from 'a' lost"
    ]
    rig.state.register_flow(1, "b", "c", 2.0)
    rig.record(KIND_SWITCH_CRASH, "a")      # a stale key's walk starts at a
    assert live._armed == {(1, "b")}


def test_tree_counts_an_edge_once_across_leaves():
    rig = Rig()
    live = rig.attach()
    rig.state.register_tree(1, ["a", "b"], "d", 1.0)
    for node, hop in (("a", "c"), ("b", "c"), ("c", "d")):
        rig.state.set_rule(1, node, hop)
    rig.state.set_capacity("c", "d", 1.5)
    rig.rule_change()
    assert live.ok
    rig.state.set_rule(1, "b", None)        # one leaf lost, the other delivers
    rig.rule_change()
    assert [v.detail for v in live.violations] == ["established path from 'b' lost"]


def test_tag_flip_reports_once_per_recorded_rule_change():
    rig = Rig()
    live = rig.attach()
    rig.install(1, ["a", "b", "c"])
    rig.rule_change()
    # The whole path is rewritten, then one record per hop.
    for node, hop in (("a", "d"), ("d", "b"), ("b", "a")):
        rig.state.set_rule(1, node, hop)
    for node in ("a", "d", "b"):
        rig.rule_change(node, flow=1, two_phase_flip=True)
    assert [v.kind for v in live.violations] == ["loop"] * 3


# -- cost and persistence ----------------------------------------------------


def test_rule_change_walks_only_the_touched_flows(monkeypatch):
    state = ForwardingState()
    trace = Trace()
    for flow_id in range(50):
        state.register_flow(flow_id, "a", "c", 1.0)
        state.set_rule(flow_id, "a", "b")
        state.set_rule(flow_id, "b", "c")
    checker = LiveChecker(state, trace)
    trace.record(0.0, KIND_RULE_CHANGE, "a")
    walked = []
    plain_walk = ForwardingState.walk

    def counting_walk(self, flow_id, *args, **kwargs):
        walked.append(flow_id)
        return plain_walk(self, flow_id, *args, **kwargs)

    monkeypatch.setattr(ForwardingState, "walk", counting_walk)
    state.set_rule(7, "a", "c")
    trace.record(1.0, KIND_RULE_CHANGE, "a", flow=7)
    trace.record(2.0, KIND_RULE_CHANGE, "a", flow=7)
    trace.record(3.0, KIND_LINK_DOWN, "a", peer="b")
    assert walked == [7]
    assert checker.ok and (7, "a") in checker._armed and len(checker._armed) == 1

