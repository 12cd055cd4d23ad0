"""Unit tests for distance labeling and version allocation (§3)."""

import pytest

from repro.core.labeling import VersionAllocator, distance_labels
from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH


def test_fig1_new_path_distances():
    """Paper §3: D_n(v0)=7, D_n(v1)=6, ..., D_n(v7)=0."""
    labels = distance_labels(FIG1_NEW_PATH)
    assert labels == {
        "v0": 7, "v1": 6, "v2": 5, "v3": 4, "v4": 3, "v5": 2, "v6": 1, "v7": 0,
    }


def test_fig1_old_path_distances():
    """Paper §3: D_o(v0)=3 (the paper's '4' next to 'D0(v0)' counts the
    nodes, its own example lists segment ids 3/2/1/0 in §3.2)."""
    labels = distance_labels(FIG1_OLD_PATH)
    assert labels == {"v0": 3, "v4": 2, "v2": 1, "v7": 0}


def test_distance_labels_reject_short_path():
    with pytest.raises(ValueError):
        distance_labels(["only"])


def test_distance_labels_reject_repeated_node():
    with pytest.raises(ValueError):
        distance_labels(["a", "b", "a"])


def test_egress_distance_is_zero():
    labels = distance_labels(["x", "y", "z"])
    assert labels["z"] == 0 and labels["x"] == 2


def test_version_allocator_increments_per_flow():
    versions = VersionAllocator()
    assert versions.next_version(1) == 1
    assert versions.next_version(1) == 2
    assert versions.next_version(2) == 1
    assert versions.current(1) == 2
    assert versions.current(99) == 0


def test_version_allocator_custom_start():
    versions = VersionAllocator(start=10)
    assert versions.next_version(1) == 11
