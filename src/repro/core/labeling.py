"""Distance labeling and version allocation (paper §3).

The control plane assigns every node of the new path P_n its distance
to the egress (number of hops), and every update a unique, strictly
increasing version number.
"""

from __future__ import annotations

from typing import Optional, Sequence


def distance_labels(path: Sequence[str]) -> dict[str, int]:
    """Hop distance to the egress for every node of ``path``.

    For the Fig. 1 new path (v0..v7): D(v0)=7, ..., D(v7)=0.
    """
    if len(path) < 2:
        raise ValueError("a path needs at least two nodes")
    if len(set(path)) != len(path):
        raise ValueError(f"path revisits a node: {path}")
    length = len(path) - 1
    return {node: length - i for i, node in enumerate(path)}


class VersionAllocator:
    """Strictly increasing version numbers per flow.

    The paper: "The version number V is unique and increments
    automatically for each new configuration."

    ``width_bits`` bounds the allocation to the data plane's version
    register space (Table 1: 16-bit version registers): versions live
    in ``[1, 2**width_bits - 1]`` and exhausting the space raises
    instead of silently wrapping — a wrapped version would compare
    *older* than the live one at every switch and deadlock the flow.
    """

    def __init__(self, start: int = 0, width_bits: Optional[int] = None) -> None:
        self._current: dict[int, int] = {}
        self._start = start
        self._limit = (2**width_bits - 1) if width_bits is not None else None

    def next_version(self, flow_id: int) -> int:
        version = self._current.get(flow_id, self._start) + 1
        if self._limit is not None and version > self._limit:
            raise OverflowError(
                f"flow {flow_id} exhausted its {self._limit}-version "
                f"register space; updates must be re-based before reuse"
            )
        self._current[flow_id] = version
        return version

    def current(self, flow_id: int) -> int:
        return self._current.get(flow_id, self._start)

    def remaining(self, flow_id: int) -> Optional[int]:
        """Version-bit slots left for ``flow_id`` (None = unbounded)."""
        if self._limit is None:
            return None
        return self._limit - self.current(flow_id)
