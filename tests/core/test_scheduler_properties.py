"""Property-based tests for the §7.4 scheduler and segmentation.

Invariants:
* reservations never go negative and never exceed capacity;
* committed + transit bookkeeping is conserved across arbitrary
  operation sequences;
* segmentation partitions the new path, and the forward/backward
  classification agrees with an independent cycle check.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.scheduler import CongestionScheduler
from repro.core.segmentation import compute_segments


# -- scheduler invariants ----------------------------------------------------------

@st.composite
def scheduler_ops(draw):
    n_ports = draw(st.integers(min_value=2, max_value=4))
    n_flows = draw(st.integers(min_value=1, max_value=5))
    capacity = draw(st.floats(min_value=5.0, max_value=20.0))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["occupy", "try_move", "commit", "abort", "release"]),
                st.integers(min_value=0, max_value=n_flows - 1),
                st.integers(min_value=1, max_value=n_ports),
                st.floats(min_value=0.5, max_value=8.0),
            ),
            min_size=1,
            max_size=40,
        )
    )
    return n_ports, capacity, ops


@given(scheduler_ops())
@settings(max_examples=200, deadline=None)
def test_scheduler_reservations_bounded(case):
    n_ports, capacity, ops = case
    sched = CongestionScheduler()
    for port in range(1, n_ports + 1):
        sched.set_port_capacity(port, capacity)
    occupied: dict[int, float] = {}
    for op, flow, port, size in ops:
        if op == "occupy":
            # Only occupy within capacity (the controller's guarantee).
            budget = sched.port_budget(port)
            if budget.remaining >= size and flow not in occupied:
                sched.occupy(flow, port, size)
                occupied[flow] = size
        elif op == "try_move":
            if flow in occupied:
                sched.try_move(flow, port, occupied[flow])
        elif op == "commit":
            sched.commit_move(flow)
        elif op == "abort":
            sched.abort_move(flow)
        elif op == "release":
            sched.release(flow)
            occupied.pop(flow, None)
        # Invariants after every operation:
        for p in range(1, n_ports + 1):
            budget = sched.port_budget(p)
            assert budget.reserved >= -1e-9, f"negative reservation on {p}"
            assert budget.reserved <= budget.capacity + 1e-9, (
                f"over-reservation on port {p}: {budget.reserved} > {budget.capacity}"
            )


@given(scheduler_ops())
@settings(max_examples=200, deadline=None)
def test_scheduler_full_release_drains_everything(case):
    n_ports, capacity, ops = case
    sched = CongestionScheduler()
    for port in range(1, n_ports + 1):
        sched.set_port_capacity(port, capacity)
    flows = set()
    for op, flow, port, size in ops:
        flows.add(flow)
        if op == "occupy":
            if sched.port_budget(port).remaining >= size:
                sched.occupy(flow, port, size)
        elif op == "try_move":
            sched.try_move(flow, port, size)
        elif op == "commit":
            sched.commit_move(flow)
        elif op == "abort":
            sched.abort_move(flow)
        elif op == "release":
            sched.release(flow)
    for flow in flows:
        sched.release(flow)
    for port in range(1, n_ports + 1):
        assert sched.port_budget(port).reserved == pytest.approx(0.0, abs=1e-9)


# -- segmentation properties -----------------------------------------------------------


@st.composite
def path_pair(draw):
    """Random old/new simple paths over a shared node universe with
    shared endpoints."""
    n = draw(st.integers(min_value=4, max_value=10))
    universe = [f"x{i}" for i in range(n)]
    src, dst = universe[0], universe[1]
    middle = universe[2:]
    old_mid = draw(st.lists(st.sampled_from(middle), unique=True, max_size=len(middle)))
    new_mid = draw(st.lists(st.sampled_from(middle), unique=True, max_size=len(middle)))
    old = [src] + old_mid + [dst]
    new = [src] + new_mid + [dst]
    return old, new


@given(path_pair())
@settings(max_examples=300, deadline=None)
def test_segments_partition_the_new_path(pair):
    old, new = pair
    segments = compute_segments(old, new)
    # Chained: each segment starts where the previous ended.
    reconstructed = list(segments[0].nodes)
    for segment in segments[1:]:
        assert reconstructed[-1] == segment.nodes[0]
        reconstructed.extend(segment.nodes[1:])
    assert reconstructed == new


@given(path_pair())
@settings(max_examples=300, deadline=None)
def test_segment_boundaries_are_exactly_the_gateways(pair):
    old, new = pair
    segments = compute_segments(old, new)
    gateways = [node for node in new if node in old]
    boundary_nodes = [segments[0].nodes[0]] + [s.nodes[-1] for s in segments]
    assert boundary_nodes == gateways


@given(path_pair())
@settings(max_examples=300, deadline=None)
def test_segment_interiors_are_off_the_old_path(pair):
    old, new = pair
    for segment in compute_segments(old, new):
        for node in segment.interior:
            assert node not in set(old)


def _creates_cycle(old, segment):
    """Independent check: does flipping the segment's ingress gateway
    onto the segment, with all other old rules in place, cycle?"""
    nxt = {a: b for a, b in zip(old, old[1:]) if a != segment.nodes[0]}
    for a, b in zip(segment.nodes, segment.nodes[1:]):
        nxt[a] = b
    node, seen = segment.nodes[0], set()
    while node in nxt:
        if node in seen:
            return True
        seen.add(node)
        node = nxt[node]
    return node in seen


@given(path_pair())
@settings(max_examples=300, deadline=None)
def test_backward_classification_matches_cycle_check(pair):
    """§3.2's distance rule == 'flipping early would loop'."""
    old, new = pair
    for segment in compute_segments(old, new):
        assert (not segment.forward) == _creates_cycle(old, segment), (
            old, new, segment
        )
