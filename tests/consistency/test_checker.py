"""Unit tests for the consistency checkers."""


from repro.consistency import (
    ForwardingState,
    check_blackhole_freedom,
    check_congestion_freedom,
    check_loop_freedom,
    LiveChecker,
)
from repro.consistency.checker import check_all
from repro.sim.trace import KIND_RULE_CHANGE, Trace


def delivered_state():
    state = ForwardingState()
    state.register_flow(1, "a", "c", size=2.0)
    state.set_rule(1, "a", "b")
    state.set_rule(1, "b", "c")
    return state


def test_walk_delivered():
    state = delivered_state()
    path, outcome = state.walk(1)
    assert outcome == "delivered"
    assert path == ["a", "b", "c"]


def test_walk_blackhole():
    state = ForwardingState()
    state.register_flow(1, "a", "c", size=1.0)
    state.set_rule(1, "a", "b")
    path, outcome = state.walk(1)
    assert outcome == "blackhole"
    assert path == ["a", "b"]


def test_walk_loop():
    state = ForwardingState()
    state.register_flow(1, "a", "d", size=1.0)
    state.set_rule(1, "a", "b")
    state.set_rule(1, "b", "c")
    state.set_rule(1, "c", "a")
    _, outcome = state.walk(1)
    assert outcome == "loop"


def test_rule_removal():
    state = delivered_state()
    state.set_rule(1, "b", None)
    _, outcome = state.walk(1)
    assert outcome == "blackhole"


def test_blackhole_checker_flags_flow():
    state = ForwardingState()
    state.register_flow(7, "a", "c", size=1.0)
    state.set_rule(7, "a", "b")
    result = check_blackhole_freedom(state)
    assert not result.ok
    assert result.violations[0].flow_id == 7
    assert result.violations[0].kind == "blackhole"


def test_loop_checker_flags_cycle():
    state = ForwardingState()
    state.register_flow(1, "a", "z", size=1.0)
    state.set_rule(1, "a", "b")
    state.set_rule(1, "b", "a")
    result = check_loop_freedom(state)
    assert not result.ok and result.violations[0].kind == "loop"


def test_loop_checker_ignores_unreachable_cycles():
    """A cycle among nodes the ingress never reaches is not a loop of
    this flow's forwarding graph reachable from ingress."""
    state = delivered_state()
    state.set_rule(1, "x", "y")
    state.set_rule(1, "y", "x")
    assert check_loop_freedom(state).ok


def test_congestion_ok_within_capacity():
    state = delivered_state()
    state.set_capacity("a", "b", 5.0)
    state.set_capacity("b", "c", 5.0)
    assert check_congestion_freedom(state).ok


def test_congestion_flags_overload():
    state = delivered_state()        # flow 1 size 2.0 on a-b, b-c
    state.register_flow(2, "a", "c", size=4.0)
    state.set_rule(2, "a", "b")
    state.set_rule(2, "b", "c")
    state.set_capacity("a", "b", 5.0)
    result = check_congestion_freedom(state)
    assert not result.ok
    assert "a" in result.violations[0].detail


def test_congestion_ignores_undeliverable_flows():
    state = ForwardingState()
    state.register_flow(1, "a", "c", size=100.0)
    state.set_rule(1, "a", "b")     # blackhole at b: not routed, no load
    state.set_capacity("a", "b", 1.0)
    assert check_congestion_freedom(state).ok


def test_check_all_aggregates():
    state = ForwardingState()
    state.register_flow(1, "a", "c", size=1.0)
    state.set_rule(1, "a", "b")
    result = check_all(state)
    assert not result.ok
    kinds = {v.kind for v in result.violations}
    assert "blackhole" in kinds


def test_live_checker_catches_transient_loop():
    state = ForwardingState()
    trace = Trace()
    checker = LiveChecker(state, trace)
    state.register_flow(1, "a", "c", size=1.0)
    state.set_rule(1, "a", "b")
    state.set_rule(1, "b", "c")
    trace.record(1.0, KIND_RULE_CHANGE, "b", flow=1)
    assert checker.ok
    # A transient loop appears at t=2 and is fixed at t=3: the live
    # checker must still have caught it.
    state.set_rule(1, "b", "a")
    trace.record(2.0, KIND_RULE_CHANGE, "b", flow=1)
    state.set_rule(1, "b", "c")
    trace.record(3.0, KIND_RULE_CHANGE, "b", flow=1)
    assert not checker.ok
    assert checker.violations[0].kind == "loop"
    assert checker.violations[0].time == 2.0


def test_live_checker_arms_blackhole_after_first_delivery():
    state = ForwardingState()
    trace = Trace()
    checker = LiveChecker(state, trace)
    state.register_flow(1, "a", "c", size=1.0)
    # Partial install (ingress first would be a blackhole mid-install).
    state.set_rule(1, "a", "b")
    trace.record(1.0, KIND_RULE_CHANGE, "a", flow=1)
    assert checker.ok, "fresh install must not count as blackhole"
    state.set_rule(1, "b", "c")
    trace.record(2.0, KIND_RULE_CHANGE, "b", flow=1)
    assert checker.ok
    # Losing the path after establishment is a real blackhole.
    state.set_rule(1, "b", None)
    trace.record(3.0, KIND_RULE_CHANGE, "b", flow=1)
    assert not checker.ok
    assert checker.violations[0].kind == "blackhole"


def test_live_checker_ignores_other_event_kinds(monkeypatch):
    calls = []
    on_event = LiveChecker._on_event

    def counting(self, event):
        calls.append(event.kind)
        on_event(self, event)

    monkeypatch.setattr(LiveChecker, "_on_event", counting)
    state = ForwardingState()
    trace = Trace()
    checker = LiveChecker(state, trace)
    state.register_flow(1, "a", "b", size=1.0)
    trace.record(1.0, "msg_send", "a")
    trace.record(2.0, "verify_ok", "a")
    assert checker.ok
    # Routed by kind: the checker is not even invoked for them.
    assert calls == []
    trace.record(3.0, KIND_RULE_CHANGE, "a", flow=1)
    trace.record(4.0, "link_down", "a", peer="b")
    trace.record(5.0, "switch_crash", "a")
    assert calls == [KIND_RULE_CHANGE, "link_down", "switch_crash"]


def test_check_all_lists_blackholes_then_loops_then_congestion():
    state = ForwardingState()
    state.register_flow(1, "a", "z", size=1.0)     # loops
    state.set_rule(1, "a", "b")
    state.set_rule(1, "b", "a")
    state.register_flow(2, "a", "c", size=1.0)     # blackhole at b
    state.set_rule(2, "a", "b")
    state.register_tree(3, ["d", "a"], "c", size=9.0)
    state.set_rule(3, "a", "c")                    # leaf d has no rule
    state.set_capacity("a", "c", 1.0)
    combined = check_all(state, time=4.0).violations
    assert combined == (
        check_blackhole_freedom(state, 4.0).violations
        + check_loop_freedom(state, 4.0).violations
        + check_congestion_freedom(state, 4.0).violations
    )
    assert [(v.kind, v.flow_id) for v in combined] == [
        ("blackhole", 2), ("blackhole", 3), ("loop", 1), ("congestion", None),
    ]


def test_flows_with_rule_at_lists_registered_flows_ascending():
    state = delivered_state()
    state.register_flow(5, "x", "c", size=1.0)
    state.set_rule(5, "b", "c")
    state.set_rule(9, "b", "c")                    # never registered
    state.register_flow(3, "a", "c", size=1.0)
    state.set_rule(3, "b", "c")
    state.set_rule(3, "b", None)
    assert state.flows_with_rule_at("b") == [1, 5]
    assert state.flows_with_rule_at("c") == []


def test_each_observer_gets_its_own_touched_set():
    state = delivered_state()
    first = state.observe()
    assert first == {1}
    first.clear()
    state.set_rule(7, "a", "b")                    # unregistered: not reported
    state.set_rule(1, "b", None)
    second = state.observe()
    state.register_tree(2, ["a", "b"], "c", size=1.0)
    assert first == {1, 2} and second == {1, 2}
    first.clear()
    assert second == {1, 2}
    revision = state.capacity_revision
    state.set_capacity("a", "b", 3.0)
    assert state.capacity_revision == revision + 1 and not first


def test_active_edges_only_for_delivered():
    state = delivered_state()
    assert state.active_edges(1) == [("a", "b"), ("b", "c")]
    state.set_rule(1, "b", None)
    assert state.active_edges(1) == []
