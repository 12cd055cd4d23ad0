"""Seeded adversarial plan-pair generator for the interference analyzer.

Property-test fuel for :mod:`repro.analysis.interference`: from one
integer seed, build batches of two plans that either **inject** a
conflict of a known kind (the analyzer must flag it) or are provably
**disjoint** (node sets, flows and capacity headroom all independent —
the analyzer must stay silent).  The generator randomises the
incidental surface (node names, flow ids, sizes, capacity slack) while
pinning the conflict geometry, so a detector regression cannot hide
behind one lucky example.

Every case is deterministic in the seed: node names come from a
shuffled alphabet drawn from ``numpy``'s ``default_rng`` seeded with
``[seed, case_index, _ADVGEN_STREAM]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topo.graph import Topology

import numpy as np

from repro.analysis.interference import (
    BatchPolicies,
    InterferenceReport,
    detect_interference,
)
from repro.analysis.plan import PlanInstall, UpdatePlan
from repro.core.messages import UpdateType

#: RNG stream tag, disjoint from the serve/sweep streams.
_ADVGEN_STREAM = 0xADF6

#: Kinds the conflict generator knows how to inject.
CONFLICT_KINDS = (
    "version-slot-race",
    "transient-loop",
    "transient-blackhole",
    "link-overcommit",
    "cross-plan-deadlock",
)


def plan_from_paths(
    flow_id: int,
    old_path: Sequence[str],
    new_path: Sequence[str],
    flow_size: float = 1.0,
    version: int = 2,
    prior_version: int = 1,
) -> UpdatePlan:
    """Synthesize a well-formed SL plan moving ``flow_id`` between
    two explicit paths.

    Installs cover the new path with paper-correct distance labels
    (egress = 0) and notify edges running distance ``d`` to ``d+1`` —
    the same shape :func:`repro.analysis.plan.plan_from_prepared`
    produces, without needing a controller.
    """
    nodes = list(new_path)
    last = len(nodes) - 1
    installs = tuple(
        PlanInstall(
            node=node,
            version=version,
            distance=last - position,
            is_flow_egress=position == last,
            is_ingress=position == 0,
        )
        for position, node in enumerate(nodes)
    )
    notify_edges = tuple(
        (nodes[position + 1], nodes[position])
        for position in range(last)
    )
    return UpdatePlan(
        flow_id=flow_id,
        version=version,
        prior_version=prior_version,
        update_type=UpdateType.SINGLE,
        installs=installs,
        notify_edges=notify_edges,
        old_path=tuple(old_path),
        new_path=tuple(new_path),
        flow_size=flow_size,
    )


@dataclass(frozen=True)
class AdversarialCase:
    """One generated batch plus the analysis inputs it expects."""

    name: str
    #: Finding kind the injected conflict must produce ("" = disjoint,
    #: the analyzer must report nothing at all).
    expect_kind: str
    plans: tuple[UpdatePlan, ...]
    capacities: dict[tuple[str, str], float] = field(default_factory=dict)
    congestion_aware: bool = True
    policies: BatchPolicies = field(default_factory=BatchPolicies)

    def analyze(self) -> InterferenceReport:
        return detect_interference(
            self.plans,
            self.policies,
            self.capacities,
            congestion_aware=self.congestion_aware,
            label=self.name,
        )


class _Names:
    """Deterministic fresh node names: a shuffled two-letter alphabet."""

    def __init__(self, rng: np.random.Generator) -> None:
        letters = "abcdefghijklmnopqrstuvwxyz"
        pool = [a + b for a in letters for b in letters]
        order = rng.permutation(len(pool))
        self._pool = [pool[i] for i in order]
        self._next = 0

    def take(self, count: int) -> list[str]:
        names = self._pool[self._next:self._next + count]
        self._next += count
        if len(names) < count:
            raise RuntimeError("name pool exhausted")
        return names


def _case_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index, _ADVGEN_STREAM])


def _size(rng: np.random.Generator) -> float:
    # Two-decimal sizes keep capacity arithmetic exactly representable
    # enough that the analyzer's epsilon never decides a case.
    return round(float(rng.uniform(0.5, 1.5)), 2)


def _flow(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def _live_flow(rng: np.random.Generator) -> int:
    # Live-simulator cases only: the UNM/probe packet headers carry a
    # 16-bit flow_id field, so ids must fit or the data-plane
    # verification never matches its pending UIM.
    return int(rng.integers(1, 2**16 - 1))


def _slot_race_case(name: str, rng: np.random.Generator) -> AdversarialCase:
    """Same flow updated twice, overlapping switches, no serialization."""
    names = _Names(rng)
    a, b, c, d, e = names.take(5)
    flow = _flow(rng)
    plans = (
        plan_from_paths(flow, (a, b, c), (a, d, c), version=2),
        plan_from_paths(flow, (a, d, c), (a, e, c), version=3,
                        prior_version=2),
    )
    return AdversarialCase(
        name=name,
        expect_kind="version-slot-race",
        plans=plans,
        policies=BatchPolicies(same_flow=False),
    )


def _loop_case(name: str, rng: np.random.Generator) -> AdversarialCase:
    """Two same-flow plans whose merged next-hop relation cycles."""
    names = _Names(rng)
    i, u, v, e = names.take(4)
    flow = _flow(rng)
    plans = (
        # Plan 0 routes u -> v; plan 1 routes v -> u.  With the pair
        # unordered an interleaving activates both rules at once.
        plan_from_paths(flow, (i, v, e), (i, u, v, e), version=2),
        plan_from_paths(flow, (i, u, v, e), (i, v, u, e), version=3,
                        prior_version=2),
    )
    return AdversarialCase(
        name=name,
        expect_kind="transient-loop",
        plans=plans,
        policies=BatchPolicies(same_flow=False),
    )


def _blackhole_case(name: str, rng: np.random.Generator) -> AdversarialCase:
    """Same flow, both new paths cross one shared non-ingress switch."""
    names = _Names(rng)
    i1, i2, m, e1, e2 = names.take(5)
    flow = _flow(rng)
    plans = (
        plan_from_paths(flow, (i1, e1), (i1, m, e1), version=2),
        plan_from_paths(flow, (i2, e2), (i2, m, e2), version=3,
                        prior_version=2),
    )
    return AdversarialCase(
        name=name,
        expect_kind="transient-blackhole",
        plans=plans,
        policies=BatchPolicies(same_flow=False),
    )


def _overcommit_case(name: str, rng: np.random.Generator) -> AdversarialCase:
    """A leaver and an enterer race over one capacity-tight edge.

    Sized so the batch endpoints fit (initial and final load both at
    most the capacity) but the worst interleaving instant does not —
    exactly the transient the admission gate exists to catch.
    """
    names = _Names(rng)
    u, v, x, y, p, q = names.take(6)
    size_a = _size(rng)
    size_b = _size(rng)
    cap = round(max(size_a, size_b) + 0.25, 2)
    plans = (
        # Plan 0 leaves edge (u, v); plan 1 enters it.
        plan_from_paths(_flow(rng), (u, v, x), (u, y, x),
                        flow_size=size_a, version=2),
        plan_from_paths(_flow(rng), (p, q, v), (p, u, v),
                        flow_size=size_b, version=2),
    )
    return AdversarialCase(
        name=name,
        expect_kind="link-overcommit",
        plans=plans,
        capacities={(u, v): cap},
        congestion_aware=False,
        policies=BatchPolicies(same_flow=True),
    )


def _deadlock_case(name: str, rng: np.random.Generator) -> AdversarialCase:
    """Two movers swapping edges, each waiting on the capacity the
    other still holds (the §7.4 scheduler's wait-for cycle)."""
    names = _Names(rng)
    u, v, x, y = names.take(4)
    size_a = _size(rng)
    size_b = _size(rng)
    caps = {
        (u, v): round(max(size_a, size_b) + 0.25, 2),
        (x, y): round(max(size_a, size_b) + 0.25, 2),
    }
    plans = (
        # Plan 0 moves off (u, v) onto (x, y); plan 1 the reverse.
        plan_from_paths(_flow(rng), (u, v), (x, y),
                        flow_size=size_a, version=2),
        plan_from_paths(_flow(rng), (x, y), (u, v),
                        flow_size=size_b, version=2),
    )
    return AdversarialCase(
        name=name,
        expect_kind="cross-plan-deadlock",
        plans=plans,
        capacities=caps,
        congestion_aware=True,
        policies=BatchPolicies(same_flow=True),
    )


_INJECTORS = {
    "version-slot-race": _slot_race_case,
    "transient-loop": _loop_case,
    "transient-blackhole": _blackhole_case,
    "link-overcommit": _overcommit_case,
    "cross-plan-deadlock": _deadlock_case,
}


def generate_conflict_cases(
    seed: int,
    count: int = 10,
    kinds: Optional[Sequence[str]] = None,
) -> list[AdversarialCase]:
    """``count`` conflicting pairs cycling through the injected kinds."""
    chosen = tuple(kinds) if kinds is not None else CONFLICT_KINDS
    unknown = set(chosen) - set(_INJECTORS)
    if unknown:
        raise ValueError(f"unknown conflict kinds: {sorted(unknown)}")
    cases = []
    for index in range(count):
        kind = chosen[index % len(chosen)]
        rng = _case_rng(seed, index)
        cases.append(
            _INJECTORS[kind](f"conflict[{index}]:{kind}", rng)
        )
    return cases


@dataclass(frozen=True)
class SlackPair:
    """A live (runnable) capacity-swap deadlock, parameterized by the
    spare capacity of a third helper corridor.

    Geometry: endpoints ``s -> t`` with three two-hop corridors.  Flow
    A holds corridor 1 and wants corridor 2; flow B holds corridor 2
    and wants corridor 1.  Corridor capacities fit exactly one flow,
    so each update waits on the capacity the other still holds — the
    §7.4 wait-for cycle, live.  The helper corridor's capacity is
    ``size + slack``: with ``slack >= 0`` an augmentation-enabled
    strategy can detour one flow over it and break the cycle; with
    negative slack no strategy can.
    """

    name: str
    seed_index: int
    slack: float
    size: float
    #: (a, b, capacity) undirected edges; latency 1.0 everywhere.
    edges: tuple[tuple[str, str, float], ...]
    #: Per-flow routing: (flow_id, old_path, new_path).
    flows: tuple[tuple[int, tuple[str, ...], tuple[str, ...]], ...]
    helper_path: tuple[str, ...]

    @property
    def augmentable(self) -> bool:
        """Does the helper corridor fit one flow?"""
        return self.slack >= 0

    def topology(self) -> "Topology":
        from repro.topo.graph import Topology

        topo = Topology(self.name)
        for a, b, capacity in self.edges:
            topo.add_edge(a, b, latency_ms=1.0, capacity=capacity)
        topo.validate()
        return topo

    def flow_objects(self) -> list:
        from repro.traffic.flows import Flow

        return [
            Flow(
                flow_id=flow_id,
                src=old[0],
                dst=old[-1],
                size=self.size,
                old_path=list(old),
                new_path=list(new),
            )
            for flow_id, old, new in self.flows
        ]


def generate_slack_pairs(
    seed: int, count: int = 5, slack: float = 0.25
) -> list[SlackPair]:
    """``count`` seeded live swap deadlocks with ``slack`` spare helper
    capacity (see :class:`SlackPair`).  Node names, flow ids and sizes
    are randomized per case; the deadlock geometry is pinned."""
    pairs = []
    for index in range(count):
        rng = _case_rng(seed, 20_000 + index)
        names = _Names(rng)
        s, t, m1, m2, h = names.take(5)
        size = _size(rng)
        cap_tight = round(size + 0.25, 2)
        cap_helper = max(0.05, round(size + slack, 2))
        edges = (
            (s, m1, cap_tight), (m1, t, cap_tight),
            (s, m2, cap_tight), (m2, t, cap_tight),
            (s, h, cap_helper), (h, t, cap_helper),
        )
        flow_a, flow_b = _live_flow(rng), _live_flow(rng)
        while flow_b == flow_a:
            flow_b = _live_flow(rng)
        flows = (
            (flow_a, (s, m1, t), (s, m2, t)),
            (flow_b, (s, m2, t), (s, m1, t)),
        )
        pairs.append(
            SlackPair(
                name=f"slack[{index}]@{slack}",
                seed_index=index,
                slack=float(slack),
                size=size,
                edges=edges,
                flows=flows,
                helper_path=(s, h, t),
            )
        )
    return pairs


def generate_disjoint_pairs(
    seed: int, count: int = 10
) -> list[AdversarialCase]:
    """``count`` pairs sharing nothing: distinct flows, disjoint node
    sets, every touched edge with slack capacity.  Any finding on one
    of these is a false positive by construction."""
    cases = []
    for index in range(count):
        rng = _case_rng(seed, 10_000 + index)
        names = _Names(rng)
        a = names.take(4)
        b = names.take(4)
        size_a, size_b = _size(rng), _size(rng)
        plans = (
            plan_from_paths(_flow(rng), (a[0], a[1], a[3]),
                            (a[0], a[2], a[3]), flow_size=size_a,
                            version=2),
            plan_from_paths(_flow(rng), (b[0], b[1], b[3]),
                            (b[0], b[2], b[3]), flow_size=size_b,
                            version=2),
        )
        capacities: dict[tuple[str, str], float] = {}
        for plan in plans:
            for path in (plan.old_path, plan.new_path):
                for edge in zip(path, path[1:]):
                    capacities[edge] = round(size_a + size_b + 1.0, 2)
        cases.append(
            AdversarialCase(
                name=f"disjoint[{index}]",
                expect_kind="",
                plans=plans,
                capacities=capacities,
                congestion_aware=False,
                policies=BatchPolicies(same_flow=True),
            )
        )
    return cases
