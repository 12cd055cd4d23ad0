"""Unit tests for the uniform completion metric
(:meth:`repro.harness.experiment.RuleChanges.establishment_time`)."""


from repro.harness.experiment import RuleChanges
from repro.sim.trace import KIND_RULE_CHANGE, Trace


def changes_of(events):
    trace = Trace()
    changes = RuleChanges(trace)
    for time, node, next_hop, flow in events:
        trace.record(time, KIND_RULE_CHANGE, node, flow=flow, next_hop=next_hop)
    return changes


def test_already_established_is_zero():
    changes = changes_of([])
    assert changes.establishment_time(1, ["a", "b"], ["a", "b"]) == 0.0


def test_simple_chain_establishes_at_last_edge():
    changes = changes_of([
        (1.0, "b", "c", 1),
        (5.0, "a", "b", 1),
    ])
    t = changes.establishment_time(1, ["a", "b", "c"], ["a", "x", "c"])
    assert t == 5.0


def test_other_flows_ignored():
    changes = changes_of([
        (1.0, "a", "b", 1),
        (9.0, "a", "z", 2),       # different flow
    ])
    assert changes.establishment_time(1, ["a", "b"], ["a", "c"]) == 1.0


def test_broken_then_reestablished():
    """A later change breaking the target path resets establishment."""
    changes = changes_of([
        (1.0, "a", "b", 1),
        (4.0, "a", "x", 1),       # breaks it
        (7.0, "a", "b", 1),       # restores
    ])
    assert changes.establishment_time(1, ["a", "b"], ["a", "q"]) == 7.0


def test_cleanup_of_offpath_node_does_not_matter():
    changes = changes_of([
        (1.0, "a", "b", 1),
        (6.0, "z", None, 1),      # cleanup elsewhere
    ])
    assert changes.establishment_time(1, ["a", "b"], ["a", "q"]) == 1.0


def test_removal_of_target_edge_breaks_it():
    changes = changes_of([
        (1.0, "a", "b", 1),
        (3.0, "a", None, 1),
    ])
    assert changes.establishment_time(1, ["a", "b"], ["a", "q"]) == float("inf")


def test_initial_rules_count():
    """Edges already correct from the initial path need no event."""
    changes = changes_of([(2.0, "b", "c", 1)])
    # a->b holds from the initial path; only b->c changes.
    t = changes.establishment_time(1, ["a", "b", "c"], ["a", "b", "x"])
    assert t == 2.0
