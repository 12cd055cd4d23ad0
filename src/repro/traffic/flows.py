"""Flow specifications.

A :class:`Flow` is the unit the paper updates: a source/destination
pair with an immutable size bound (the controller-known maximum rate,
§5 footnote 1) and its old and new paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional


def flow_hash(src: str, dst: str, space: int = 1 << 16) -> int:
    """Deterministic flow identifier from the src/dst pair.

    Mirrors the data plane's FRM generation (paper App. B: "calculates
    a hash value based on the source-destination pair").  Uses a simple
    FNV-1a over the pair so runs are reproducible across processes
    (Python's builtin ``hash`` is salted).
    """
    data = f"{src}->{dst}".encode()
    value = 0xCBF29CE484222325
    for byte in data:
        value ^= byte
        value = (value * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return value % space


@dataclass
class Flow:
    """One unicast flow with its routing state."""

    flow_id: int
    src: str
    dst: str
    size: float
    old_path: Optional[list[str]] = None
    new_path: Optional[list[str]] = None

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"flow {self.flow_id}: negative size {self.size}")
        for label, path in (("old", self.old_path), ("new", self.new_path)):
            if path is None:
                continue
            if len(path) < 2:
                raise ValueError(f"flow {self.flow_id}: {label} path too short: {path}")
            if path[0] != self.src or path[-1] != self.dst:
                raise ValueError(
                    f"flow {self.flow_id}: {label} path endpoints {path[0]!r}->"
                    f"{path[-1]!r} do not match flow {self.src!r}->{self.dst!r}"
                )
            if len(set(path)) != len(path):
                raise ValueError(f"flow {self.flow_id}: {label} path revisits a node")

    @classmethod
    def between(
        cls,
        src: str,
        dst: str,
        size: float = 1.0,
        old_path: Optional[list[str]] = None,
        new_path: Optional[list[str]] = None,
    ) -> "Flow":
        return cls(
            flow_id=flow_hash(src, dst),
            src=src,
            dst=dst,
            size=size,
            old_path=old_path,
            new_path=new_path,
        )

    def old_edges(self) -> list[tuple[str, str]]:
        return list(zip(self.old_path, self.old_path[1:])) if self.old_path else []

    def new_edges(self) -> list[tuple[str, str]]:
        return list(zip(self.new_path, self.new_path[1:])) if self.new_path else []


class FlowSet:
    """Collection of flows with id-uniqueness and link-load queries."""

    def __init__(self, flows: Optional[list[Flow]] = None) -> None:
        self._flows: dict[int, Flow] = {}
        for flow in flows or []:
            self.add(flow)

    def add(self, flow: Flow) -> None:
        if flow.flow_id in self._flows:
            raise ValueError(f"duplicate flow id {flow.flow_id}")
        self._flows[flow.flow_id] = flow

    def __getitem__(self, flow_id: int) -> Flow:
        return self._flows[flow_id]

    def __contains__(self, flow_id: int) -> bool:
        return flow_id in self._flows

    def __iter__(self) -> Iterator[Flow]:
        return iter(self._flows.values())

    def __len__(self) -> int:
        return len(self._flows)

    def link_load(self, which: str = "old", directed: bool = False) -> dict:
        """Aggregate flow size per link for old/new paths.

        With ``directed=False`` (default) loads of both directions are
        summed under a ``frozenset`` key — the conservative view used
        for traffic generation.  With ``directed=True`` loads are kept
        per ``(a, b)`` direction, matching the runtime capacity model.
        """
        if which not in ("old", "new"):
            raise ValueError("which must be 'old' or 'new'")
        load: dict = {}
        for flow in self:
            edges = flow.old_edges() if which == "old" else flow.new_edges()
            for a, b in edges:
                key = (a, b) if directed else frozenset((a, b))
                load[key] = load.get(key, 0.0) + flow.size
        return load

    def feasible(
        self, capacities: dict[frozenset, float], which: str = "old", directed: bool = False
    ) -> bool:
        """True when the chosen paths respect every link capacity."""
        for key, load in self.link_load(which, directed=directed).items():
            lookup = frozenset(key) if directed else key
            if load > capacities.get(lookup, float("inf")) + 1e-9:
                return False
        return True
