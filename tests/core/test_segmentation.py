"""Unit tests for gateways and segmentation against the Fig. 1 example."""

import pytest

from repro.core.segmentation import compute_segments, nodes_to_update
from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH


def test_fig1_gateways():
    """Paper §3.2: G = {v0, v4, v2, v7} — in new-path order v0, v2, v4, v7."""
    segments = compute_segments(FIG1_OLD_PATH, FIG1_NEW_PATH)
    gateways = [segments[0].ingress_gateway] + [s.egress_gateway for s in segments]
    assert gateways == ["v0", "v2", "v4", "v7"]


def test_fig1_segments():
    """Paper §3.2: {v0,v1,v2} and {v4,v5,v6,v7} forward, {v2,v3,v4} backward."""
    segments = compute_segments(FIG1_OLD_PATH, FIG1_NEW_PATH)
    assert [s.nodes for s in segments] == [
        ("v0", "v1", "v2"),
        ("v2", "v3", "v4"),
        ("v4", "v5", "v6", "v7"),
    ]
    assert [s.forward for s in segments] == [True, False, True]


def test_fig1_segment_roles():
    segments = compute_segments(FIG1_OLD_PATH, FIG1_NEW_PATH)
    (backward,) = [s for s in segments if not s.forward]
    assert backward.ingress_gateway == "v2"
    assert backward.egress_gateway == "v4"
    assert backward.interior == ("v3",)
    assert len(backward) == 3


def test_identical_paths_single_chain_of_segments():
    path = ["a", "b", "c"]
    segments = compute_segments(path, path)
    # Every node is a gateway; each hop is a trivial forward segment.
    assert [s.nodes for s in segments] == [("a", "b"), ("b", "c")]
    assert all(s.forward for s in segments)


def test_disjoint_detour_is_one_forward_segment():
    old = ["a", "x", "b"]
    new = ["a", "y", "z", "b"]
    segments = compute_segments(old, new)
    assert len(segments) == 1
    assert segments[0].nodes == ("a", "y", "z", "b")
    assert segments[0].forward


def test_mismatched_endpoints_rejected():
    with pytest.raises(ValueError):
        compute_segments(["a", "b"], ["a", "c"])


def test_nodes_to_update_fig1():
    changed = nodes_to_update(FIG1_OLD_PATH, FIG1_NEW_PATH)
    # v7 is egress (no rule change); every other new-path node changes
    # or gains a rule.
    assert changed == {"v0", "v1", "v2", "v3", "v4", "v5", "v6"}


def test_nodes_to_update_no_change():
    assert nodes_to_update(["a", "b"], ["a", "b"]) == set()


def test_backward_segment_detection_via_old_distance():
    # old: a-b-c-d-e ; new: a-d-c-b-e reverses the middle.
    old = ["a", "b", "c", "d", "e"]
    new = ["a", "d", "c", "b", "e"]
    segments = compute_segments(old, new)
    kinds = {s.nodes: s.forward for s in segments}
    assert kinds[("a", "d")] is True       # old dist 4 -> 1: forward
    assert kinds[("d", "c")] is False      # 1 -> 2: backward
    assert kinds[("c", "b")] is False      # 2 -> 3: backward
    assert kinds[("b", "e")] is True       # 3 -> 0: forward


def test_long_path_segments_in_one_index_pass():
    """A 40-node P_n crossing P_o at every fourth node: gateway membership
    is one dict test per node, so the cut costs O(n) hashes — the index
    pass used to rebuild ``set(gateways)``, |G| hashes, for every node."""
    hashed = []

    class Node(str):
        def __hash__(self):
            hashed.append(self)
            return str.__hash__(self)

    new = [Node(f"n{i}") for i in range(40)]
    shared = new[::4] + [new[-1]]
    old = [shared[0]] + shared[-2:0:-1] + [shared[-1]]     # interior reversed
    segments = compute_segments(old, new)
    assert len(hashed) <= 2 * (len(old) + len(new))        # 573 before
    assert [s.ingress_gateway for s in segments] == shared[:-1]
    assert [s.egress_gateway for s in segments] == shared[1:]
    assert sum(len(s) - 1 for s in segments) == len(new) - 1
    # Reversed interior: only the first hop into it moves closer to the
    # egress w.r.t. P_o; every other segment is backward, bar the last.
    assert [s.forward for s in segments] == (
        [True] + [False] * (len(segments) - 2) + [True]
    )
