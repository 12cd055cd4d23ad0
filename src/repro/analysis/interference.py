"""Static inter-plan interference analysis.

P4Update's consistency argument (Alg. 1/2) is *per update*: each
switch locally verifies the order of one flow's install chain.  The
service orchestrator, however, dispatches many prepared plans
concurrently and relies on dynamic serialization (same-flow,
shared-footprint, ``max_in_flight``) to keep concurrent updates from
interleaving badly.  This module proves — or refutes — that a *batch*
of plans cannot interleave into a consistency violation, before a
single UIM is sent:

1. :func:`footprint_of` extracts each plan's read/write footprint:
   the pending-version register slots it writes (one per (switch,
   flow)), the table entries it installs, and its directed-edge
   capacity deltas (edges entered / left / kept).
2. :func:`build_happens_before` composes every plan's internal
   dependency DAG (the Alg. 1/2 enable order) with the orchestrator's
   serialization policies into one static happens-before order over
   all install/verify operations in the batch.
3. :func:`detect_interference` enumerates unordered plan pairs and
   classifies them into typed findings — ``version-slot-race``,
   ``transient-loop``, ``transient-blackhole``, ``link-overcommit``
   and ``cross-plan-deadlock`` — each carrying a concrete interleaving
   counterexample (an execution prefix, step by step, ending in the
   bad state).

The capacity detectors are mode-aware: with the §7.4 data-plane
scheduler active (``congestion_aware=True``) a transient overcommit
cannot occur — the scheduler defers the move instead, so the hazard
surfaces as a *cross-plan deadlock* (two unordered plans each holding
old+new capacity the other needs).  With the scheduler off, the same
unordered capacity deltas surface as a *link overcommit*.  Findings
are only ever emitted for hazards created by interleaving: a final
state that overcommits a link under every serialization is the batch's
intent, not an interference bug, and is deliberately not reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence

from repro.analysis.plan import UpdatePlan, find_cycle
from repro.loading import plain, spec_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.spec import ServeSpec

#: The typed finding kinds, in severity order (loops first: they drop
#: packets into a cycle *and* exhaust link capacity while doing so).
INTERFERENCE_KINDS = (
    "transient-loop",
    "transient-blackhole",
    "version-slot-race",
    "link-overcommit",
    "cross-plan-deadlock",
)

#: Tolerance for capacity comparisons (mirrors the live checker).
_CAP_EPS = 1e-9


# -- footprints ---------------------------------------------------------------


def _path_edges(path: Sequence[str]) -> tuple[tuple[str, str], ...]:
    return tuple(zip(path, path[1:]))


@dataclass(frozen=True)
class PlanFootprint:
    """What one plan reads and writes, seen by the rest of the batch.

    ``version_slots`` are the pending-version register slots the plan
    writes — one per (switch, flow) pair, the resource same-flow
    serialization protects.  ``table_entries`` are the forwarding
    entries installed, keyed (switch, flow, version).  The edge sets
    drive the capacity analysis: ``enter_edges`` gain the flow's load,
    ``leave_edges`` shed it, ``stay_edges`` carry it throughout.
    """

    flow_id: int
    version: int
    flow_size: float
    switches: frozenset[str]
    version_slots: tuple[tuple[str, int], ...]
    table_entries: tuple[tuple[str, int, int], ...]
    old_edges: tuple[tuple[str, str], ...]
    new_edges: tuple[tuple[str, str], ...]

    @property
    def enter_edges(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.new_edges) - frozenset(self.old_edges)

    @property
    def leave_edges(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.old_edges) - frozenset(self.new_edges)

    @property
    def stay_edges(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.old_edges) & frozenset(self.new_edges)

    @property
    def touched_edges(self) -> frozenset[tuple[str, str]]:
        """Edges that may carry this flow at *some* instant mid-update."""
        return frozenset(self.old_edges) | frozenset(self.new_edges)

    def capacity_deltas(self) -> dict[tuple[str, str], float]:
        """Directed-edge load change once the plan completes."""
        deltas: dict[tuple[str, str], float] = {}
        for edge in sorted(self.enter_edges):
            deltas[edge] = deltas.get(edge, 0.0) + self.flow_size
        for edge in sorted(self.leave_edges):
            deltas[edge] = deltas.get(edge, 0.0) - self.flow_size
        return deltas


def footprint_of(plan: UpdatePlan) -> PlanFootprint:
    """Extract the read/write footprint of one prepared plan."""
    switches = frozenset(install.node for install in plan.installs)
    return PlanFootprint(
        flow_id=plan.flow_id,
        version=plan.version,
        flow_size=plan.flow_size,
        switches=switches,
        version_slots=tuple(
            (node, plan.flow_id) for node in sorted(switches)
        ),
        table_entries=tuple(
            (install.node, plan.flow_id, install.version)
            for install in plan.installs
        ),
        old_edges=_path_edges(plan.old_path),
        new_edges=_path_edges(plan.new_path),
    )


def footprint_from_paths(
    flow_id: int,
    old_path: Sequence[str],
    new_path: Sequence[str],
    flow_size: float,
    version: int = 0,
) -> PlanFootprint:
    """Footprint for a not-yet-prepared update (the admission gate
    sees the target paths before ``prepare_update`` runs)."""
    switches = frozenset(new_path)
    return PlanFootprint(
        flow_id=flow_id,
        version=version,
        flow_size=flow_size,
        switches=switches,
        version_slots=tuple((node, flow_id) for node in sorted(switches)),
        table_entries=tuple(
            (node, flow_id, version) for node in sorted(switches)
        ),
        old_edges=_path_edges(old_path),
        new_edges=_path_edges(new_path),
    )


# -- happens-before -----------------------------------------------------------


@dataclass(frozen=True)
class BatchPolicies:
    """The orchestrator serialization policies, as static order.

    ``same_flow`` and ``shared_switch`` order conflicting plan pairs
    by batch (submission) position, exactly as the orchestrator's
    in-flight tracking does.  ``max_in_flight=1`` is a total order.
    A cap greater than one bounds concurrency without ordering any
    *specific* pair, so it soundly contributes no edges.
    ``extra_order`` carries injected (earlier, later) plan-index pairs
    — the ``static_interference=serialize`` gate's output.
    """

    same_flow: bool = False
    shared_switch: bool = False
    max_in_flight: int = 0
    extra_order: tuple[tuple[int, int], ...] = ()

    def to_dict(self) -> dict:
        return plain(self)


@dataclass(frozen=True)
class PlanOp:
    """One operation in the batch-wide order."""

    plan: int       # batch index of the owning plan
    node: str
    action: str     # "install" | "verify"

    def describe(self) -> str:
        return f"plan#{self.plan}:{self.action}@{self.node}"


@dataclass
class HappensBefore:
    """The composed static order over every operation in a batch."""

    plans: list[UpdatePlan]
    footprints: list[PlanFootprint]
    policies: BatchPolicies
    ops: tuple[PlanOp, ...]
    #: Intra-plan enable edges (a happens before b), op granularity.
    op_edges: tuple[tuple[PlanOp, PlanOp], ...]
    #: Transitively closed plan-level order: (i, j) = i fully precedes j.
    plan_before: frozenset[tuple[int, int]]

    def ordered(self, i: int, j: int) -> bool:
        """Is the pair of plans (i, j) ordered either way?"""
        return (i, j) in self.plan_before or (j, i) in self.plan_before

    def unordered_plan_pairs(self) -> Iterator[tuple[int, int]]:
        for i in range(len(self.plans)):
            for j in range(i + 1, len(self.plans)):
                if not self.ordered(i, j):
                    yield (i, j)


def _transitive_pairs(
    count: int, edges: set[tuple[int, int]]
) -> frozenset[tuple[int, int]]:
    adjacency: dict[int, set[int]] = {i: set() for i in range(count)}
    for a, b in edges:
        if 0 <= a < count and 0 <= b < count:
            adjacency[a].add(b)
    closed: set[tuple[int, int]] = set()
    for start in range(count):
        frontier = list(adjacency[start])
        seen: set[int] = set()
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            closed.add((start, node))
            frontier.extend(adjacency[node])
    return frozenset(closed)


def build_happens_before(
    plans: Sequence[UpdatePlan],
    policies: Optional[BatchPolicies] = None,
    footprints: Optional[Sequence[PlanFootprint]] = None,
) -> HappensBefore:
    """Compose intra-plan DAGs with the serialization policies.

    Plans are taken in batch order — the orchestrator's submission
    order — and every policy that serializes a conflicting pair orders
    the earlier plan fully before the later one.
    """
    policies = policies if policies is not None else BatchPolicies()
    prints = (
        list(footprints)
        if footprints is not None
        else [footprint_of(plan) for plan in plans]
    )

    ops: list[PlanOp] = []
    op_edges: list[tuple[PlanOp, PlanOp]] = []
    for index, plan in enumerate(plans):
        installs = {
            install.node: PlanOp(index, install.node, "install")
            for install in plan.installs
        }
        verifies = {
            node: PlanOp(index, node, "verify") for node in installs
        }
        for node in sorted(installs):
            ops.append(installs[node])
            ops.append(verifies[node])
            op_edges.append((installs[node], verifies[node]))
        for a, b in plan.notify_edges:
            if a in verifies and b in installs:
                op_edges.append((verifies[a], installs[b]))
        for waiter, prerequisite in plan.dependencies:
            if prerequisite in verifies and waiter in installs:
                op_edges.append((verifies[prerequisite], installs[waiter]))

    pair_edges: set[tuple[int, int]] = set()
    for i in range(len(plans)):
        for j in range(i + 1, len(plans)):
            if policies.same_flow and prints[i].flow_id == prints[j].flow_id:
                pair_edges.add((i, j))
            elif policies.shared_switch and (
                prints[i].switches & prints[j].switches
            ):
                pair_edges.add((i, j))
            elif policies.max_in_flight == 1:
                pair_edges.add((i, j))
    pair_edges.update(policies.extra_order)

    return HappensBefore(
        plans=list(plans),
        footprints=prints,
        policies=policies,
        ops=tuple(ops),
        op_edges=tuple(op_edges),
        plan_before=_transitive_pairs(len(plans), pair_edges),
    )


# -- findings -----------------------------------------------------------------


@dataclass(frozen=True)
class InterferenceFinding:
    """One typed interference hazard between plans of a batch.

    ``counterexample`` is a concrete interleaving: an ordered list of
    execution steps, consistent with the happens-before order, whose
    final step states the violated property.
    """

    kind: str
    message: str
    subject: str                   # the contended resource
    plans: tuple[int, ...]         # batch indices involved
    flows: tuple[int, ...]
    counterexample: tuple[str, ...]
    #: (earlier, later) plan-index pairs that would silence this
    #: finding — what the ``serialize`` gate injects.  Direction
    #: matters: a leaver must complete before an enterer dispatches.
    suggested_order: tuple[tuple[int, int], ...] = ()

    def to_dict(self) -> dict:
        return plain(self)

    def format(self) -> str:
        lines = [f"{self.kind} [{self.subject}]: {self.message}"]
        lines.extend(f"    {i + 1}. {step}"
                     for i, step in enumerate(self.counterexample))
        return "\n".join(lines)


@dataclass
class InterferenceReport:
    """Outcome of analyzing one batch."""

    label: str
    plan_count: int
    policies: BatchPolicies
    congestion_aware: bool
    findings: list[InterferenceFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "plans": self.plan_count,
            "policies": self.policies.to_dict(),
            "congestion_aware": self.congestion_aware,
            "findings": [f.to_dict() for f in self.findings],
        }

    def signature(self) -> str:
        """SHA-256 over the canonical findings JSON."""
        return spec_digest([f.to_dict() for f in self.findings])

    def describe(self) -> str:
        head = (
            f"batch {self.label!r}: {self.plan_count} plan(s), "
            f"{len(self.findings)} finding(s)"
        )
        if self.ok:
            return f"{head}: OK"
        return "\n".join([head] + [f.format() for f in self.findings])


# -- detectors ----------------------------------------------------------------


def _plan_tag(index: int, plan: UpdatePlan) -> str:
    return f"plan#{index}(flow {plan.flow_id}, v{plan.version})"


def _install_order(plan: UpdatePlan) -> list[str]:
    """A valid execution order of the plan's installs: distance
    ascending (egress first), exactly the Alg. 1/2 enable chain."""
    return [
        install.node
        for install in sorted(
            plan.installs, key=lambda i: (i.distance, i.node)
        )
    ]


def _next_hops(path: Sequence[str]) -> dict[str, str]:
    return {a: b for a, b in zip(path, path[1:])}


def _same_flow_pair_findings(
    i: int,
    j: int,
    plans: Sequence[UpdatePlan],
    prints: Sequence[PlanFootprint],
) -> list[InterferenceFinding]:
    """Hazards between two unordered plans updating the *same* flow."""
    p, q = plans[i], plans[j]
    fp, fq = prints[i], prints[j]
    out: list[InterferenceFinding] = []
    tag_p, tag_q = _plan_tag(i, p), _plan_tag(j, q)

    # Write-write on the pending-version register slot.
    shared_slots = sorted(set(fp.version_slots) & set(fq.version_slots))
    if shared_slots:
        node, flow = shared_slots[0]
        steps = [
            f"{tag_p}: install at {node} — slot ({node}, flow {flow}) "
            f"now pends v{p.version}",
            f"{tag_q}: install at {node} — overwrites the slot with "
            f"v{q.version} while {tag_p}'s verification is in flight",
            f"{tag_p}'s UNM for v{p.version} reaches {node}: the slot "
            f"holds v{q.version}, the ack chain stalls",
        ]
        out.append(
            InterferenceFinding(
                kind="version-slot-race",
                message=(
                    f"{tag_p} and {tag_q} both write the pending-version "
                    f"register slot at {len(shared_slots)} switch(es) "
                    f"({', '.join(sorted(n for n, _ in shared_slots))}) "
                    f"with no order between them"
                ),
                subject=f"slot({node},flow{flow})",
                plans=(i, j),
                flows=(p.flow_id,),
                counterexample=tuple(steps),
                suggested_order=((i, j),),
            )
        )

    # Transient loop: a cycle in the merged forwarding relation (any
    # rule either plan may activate, plus the not-yet-removed old
    # rules).
    union: dict[str, dict[str, str]] = {}
    providers = (
        (f"{tag_p} old rule", _next_hops(p.old_path)),
        (f"{tag_p} new rule", _next_hops(p.new_path)),
        (f"{tag_q} old rule", _next_hops(q.old_path)),
        (f"{tag_q} new rule", _next_hops(q.new_path)),
    )
    for provider, hops in providers:
        for node, nxt in hops.items():
            union.setdefault(node, {})[nxt] = provider
    cycle = find_cycle(union)
    if cycle is not None:
        steps = []
        for a, b in zip(cycle, cycle[1:]):
            steps.append(
                f"activate {union[a][b]} at {a}: forwards {a} -> {b}"
            )
        steps.append(
            "a packet of flow "
            f"{p.flow_id} entering the cycle loops forever: "
            + " -> ".join(cycle)
        )
        out.append(
            InterferenceFinding(
                kind="transient-loop",
                message=(
                    f"the merged forwarding relation of {tag_p} and "
                    f"{tag_q} contains a cycle; with the pair unordered, "
                    f"an interleaving can activate every edge of it at "
                    f"once"
                ),
                subject="cycle(" + ",".join(cycle[:-1]) + ")",
                plans=(i, j),
                flows=(p.flow_id,),
                counterexample=tuple(steps),
                suggested_order=((i, j),),
            )
        )

    # Transient blackhole: both new paths visit a shared switch beyond
    # the ingress; whichever plan writes it last pins the slot to its
    # version, and packets stamped with the other version are dropped
    # there (Alg. 1/2 match on the exact version).
    shared = [
        node
        for node in q.new_path
        if node in set(p.new_path) and node != (
            p.new_path[0] if p.new_path else None
        )
    ]
    if shared and p.new_path and q.new_path:
        victim = shared[0]
        order_q = _install_order(q)
        prefix_q = order_q[: order_q.index(victim) + 1] if (
            victim in order_q
        ) else [victim]
        steps = [
            f"{tag_p}: install at {node}"
            for node in _install_order(p)
        ]
        steps.append(
            f"packets of flow {p.flow_id} now enter at "
            f"{p.new_path[0]} stamped v{p.version}"
        )
        steps.extend(f"{tag_q}: install at {node}" for node in prefix_q)
        steps.append(
            f"a v{p.version} packet reaches {victim}, which now only "
            f"matches v{q.version}: dropped (blackhole)"
        )
        out.append(
            InterferenceFinding(
                kind="transient-blackhole",
                message=(
                    f"{tag_p} and {tag_q} are unordered and their new "
                    f"paths share switch {victim}: the last writer pins "
                    f"the version there and strands the other plan's "
                    f"packets"
                ),
                subject=f"switch({victim})",
                plans=(i, j),
                flows=(p.flow_id,),
                counterexample=tuple(steps),
                suggested_order=((i, j),),
            )
        )
    return out


def _capacity_findings(
    plans: Sequence[UpdatePlan],
    prints: Sequence[PlanFootprint],
    hb: HappensBefore,
    capacities: Mapping[tuple[str, str], float],
    congestion_aware: bool,
) -> list[InterferenceFinding]:
    """Link-overcommit / cross-plan-deadlock over unordered deltas.

    Per directed edge the batch partitions into enterers, leavers and
    stayers.  The committed final load is every serialization's
    endpoint, so only *transient* excess — a leaver's load still
    present while an unordered enterer's load arrives — is a finding.
    """
    by_edge: dict[tuple[str, str], dict[str, list[int]]] = {}
    for index, fp in enumerate(prints):
        for edge in fp.enter_edges:
            by_edge.setdefault(edge, {}).setdefault("enter", []).append(index)
        for edge in fp.leave_edges:
            by_edge.setdefault(edge, {}).setdefault("leave", []).append(index)
        for edge in fp.stay_edges:
            by_edge.setdefault(edge, {}).setdefault("stay", []).append(index)

    out: list[InterferenceFinding] = []
    waits: dict[int, dict[int, tuple[str, str]]] = {}
    for edge in sorted(by_edge):
        cap = capacities.get(edge)
        if cap is None or cap <= 0:
            continue
        groups = by_edge[edge]
        enterers = groups.get("enter", [])
        leavers = groups.get("leave", [])
        stay_load = sum(prints[s].flow_size for s in groups.get("stay", []))
        final_load = stay_load + sum(prints[n].flow_size for n in enterers)
        initial_load = stay_load + sum(
            prints[lv].flow_size for lv in leavers
        )
        if final_load > cap + _CAP_EPS or initial_load > cap + _CAP_EPS:
            # The endpoint itself overcommits: not an interleaving
            # hazard, every serialization shares it.  Skip.
            continue
        # A leaver's load coexists with an enterer's unless the leaver
        # is serialized strictly *before* it — the old rule carries
        # load until the leaver's own install removes it.
        racy = [
            (lv, n)
            for lv in leavers
            for n in enterers
            if (lv, n) not in hb.plan_before
        ]
        if not racy:
            continue
        racing_leavers = sorted({lv for lv, _ in racy})
        worst = final_load + sum(
            prints[lv].flow_size for lv in racing_leavers
        )
        if worst <= cap + _CAP_EPS:
            continue
        if congestion_aware:
            # §7.4 scheduler: the enterer's move defers until the
            # leaver departs — record the wait-for edge; deadlock
            # detection below decides whether that is fatal.
            for lv, n in racy:
                must_wait = (
                    stay_load
                    + prints[lv].flow_size
                    + prints[n].flow_size
                    > cap + _CAP_EPS
                )
                if must_wait:
                    waits.setdefault(n, {}).setdefault(lv, edge)
            continue
        a, b = edge
        pair_bits = ", ".join(
            f"plan#{lv} (leaving) vs plan#{n} (entering)"
            for lv, n in racy
        )
        steps = []
        for n in sorted({n for _, n in racy}):
            steps.append(
                f"{_plan_tag(n, plans[n])}: install at {a} — flow "
                f"{plans[n].flow_id} now loads {a}->{b} "
                f"(+{prints[n].flow_size:g})"
            )
        for lv in racing_leavers:
            steps.append(
                f"{_plan_tag(lv, plans[lv])} has not yet removed flow "
                f"{plans[lv].flow_id} from {a}->{b} "
                f"(still +{prints[lv].flow_size:g})"
            )
        steps.append(
            f"edge {a}->{b} carries {worst:g} > capacity {cap:g} "
            f"(committed final load would be {final_load:g})"
        )
        out.append(
            InterferenceFinding(
                kind="link-overcommit",
                message=(
                    f"unordered capacity deltas on {a}->{b}: {pair_bits}; "
                    f"an interleaving carries {worst:g} over capacity "
                    f"{cap:g} with the congestion scheduler disabled"
                ),
                subject=f"edge({a}->{b})",
                plans=tuple(sorted({x for pair in racy for x in pair})),
                flows=tuple(
                    sorted(
                        {plans[x].flow_id for pair in racy for x in pair}
                    )
                ),
                counterexample=tuple(steps),
                suggested_order=tuple(sorted(set(racy))),
            )
        )

    if congestion_aware and waits:
        out.extend(_deadlock_findings(plans, prints, waits, capacities))
    return out


def _deadlock_findings(
    plans: Sequence[UpdatePlan],
    prints: Sequence[PlanFootprint],
    waits: dict[int, dict[int, tuple[str, str]]],
    capacities: Mapping[tuple[str, str], float],
) -> list[InterferenceFinding]:
    """Cycles in the scheduler wait-for graph among unordered plans."""
    out: list[InterferenceFinding] = []
    seen_cycles: set[tuple[int, ...]] = set()
    adjacency = {p: sorted(targets) for p, targets in waits.items()}
    for start in sorted(adjacency):
        cycle = find_cycle(adjacency, (start,))
        if cycle is None:
            continue
        canonical = tuple(sorted(cycle[:-1]))
        if canonical in seen_cycles:
            continue
        seen_cycles.add(canonical)
        steps = []
        for p, q in zip(cycle, cycle[1:]):
            a, b = waits[p][q]
            cap = capacities.get((a, b), 0.0)
            steps.append(
                f"{_plan_tag(p, plans[p])} holds its old path and waits "
                f"to move onto {a}->{b}: the move needs "
                f"{prints[p].flow_size:g} but "
                f"{_plan_tag(q, plans[q])} still holds "
                f"{prints[q].flow_size:g} of capacity {cap:g} there"
            )
        steps.append(
            "every plan on the cycle holds capacity another needs: no "
            "try_move can ever commit (scheduler deadlock)"
        )
        out.append(
            InterferenceFinding(
                kind="cross-plan-deadlock",
                message=(
                    "the §7.4 congestion scheduler's wait-for relation "
                    "cycles through "
                    + " -> ".join(f"plan#{p}" for p in cycle)
                    + " with no serialization ordering the plans"
                ),
                subject=(
                    "waitcycle("
                    + ",".join(str(p) for p in canonical)
                    + ")"
                ),
                plans=canonical,
                flows=tuple(sorted({plans[p].flow_id for p in canonical})),
                counterexample=tuple(steps),
                # Breaking any one wait edge breaks the cycle: run the
                # waited-on leaver strictly before its enterer.
                suggested_order=((cycle[1], cycle[0]),),
            )
        )
    return out


def detect_interference(
    plans: Sequence[UpdatePlan],
    policies: Optional[BatchPolicies] = None,
    capacities: Optional[Mapping[tuple[str, str], float]] = None,
    congestion_aware: bool = True,
    label: str = "batch",
) -> InterferenceReport:
    """Run every interference detector over one batch of plans."""
    policies = policies if policies is not None else BatchPolicies()
    prints = [footprint_of(plan) for plan in plans]
    hb = build_happens_before(plans, policies, prints)
    findings: list[InterferenceFinding] = []

    for i, j in hb.unordered_plan_pairs():
        if prints[i].flow_id == prints[j].flow_id:
            findings.extend(_same_flow_pair_findings(i, j, plans, prints))

    if capacities:
        findings.extend(
            _capacity_findings(
                plans, prints, hb, capacities, congestion_aware
            )
        )

    findings.sort(key=lambda f: (f.kind, f.subject, f.plans))
    return InterferenceReport(
        label=label,
        plan_count=len(plans),
        policies=policies,
        congestion_aware=congestion_aware,
        findings=findings,
    )


# -- gate-side pairwise check -------------------------------------------------


def pair_conflicts(
    candidate: PlanFootprint,
    in_flight: PlanFootprint,
    capacities: Optional[Mapping[tuple[str, str], float]] = None,
) -> list[dict]:
    """Dispatch-time conflicts between a candidate and one in-flight
    update (the admission gate's unit of work).

    Pure reads over the two footprints — no RNG, no clock — so gating
    never perturbs a conflict-free run.  Same-flow slot races are
    reported for completeness (the orchestrator already serializes
    those structurally); capacity conflicts flag any shared directed
    edge whose worst-instant load exceeds capacity while both updates
    are mid-flight.
    """
    conflicts: list[dict] = []
    if candidate.flow_id == in_flight.flow_id:
        conflicts.append(
            {
                "kind": "version-slot-race",
                "subject": f"flow({candidate.flow_id})",
                "flows": [candidate.flow_id],
            }
        )
    if capacities:
        for edge in sorted(
            candidate.touched_edges & in_flight.touched_edges
        ):
            cap = capacities.get(edge)
            if cap is None or cap <= 0:
                continue
            # Worst instant mid-flight: both loads present.  Only a
            # conflict when it is the *interleaving* that overcommits —
            # the pair's initial and final states must both fit (a
            # steady state over capacity is not a dispatch hazard, and
            # waiting would not cure it).
            worst = candidate.flow_size + in_flight.flow_size
            final = sum(
                fp.flow_size
                for fp in (candidate, in_flight)
                if edge in frozenset(fp.new_edges)
            )
            initial = sum(
                fp.flow_size
                for fp in (candidate, in_flight)
                if edge in frozenset(fp.old_edges)
            )
            if (
                worst > cap + _CAP_EPS
                and final <= cap + _CAP_EPS
                and initial <= cap + _CAP_EPS
            ):
                a, b = edge
                conflicts.append(
                    {
                        "kind": "link-overcommit",
                        "subject": f"edge({a}->{b})",
                        "flows": sorted(
                            {candidate.flow_id, in_flight.flow_id}
                        ),
                        "worst_load": worst,
                        "capacity": cap,
                    }
                )
    return conflicts


# -- batch builders -----------------------------------------------------------


def batch_from_serve_spec(
    spec: "ServeSpec",
) -> tuple[list[UpdatePlan], BatchPolicies, dict[tuple[str, str], float]]:
    """The static batch a serve spec implies: one primary-to-alternate
    plan per flow of the seeded population, analyzed under the spec's
    serialization policies and the topology's link capacities.

    Builds the same deployment and flow population ``run_service``
    would (same seed streams), prepares each flow's first toggle, and
    lifts the prepared updates into the static model — no simulation
    runs.
    """
    from repro.analysis.plan import plan_from_prepared
    from repro.serve.service import build_service_deployment, link_capacities
    # The static model is of P4Update plans, whatever the spec deploys.
    deployment, population = build_service_deployment(
        spec, strategy="p4update"
    )
    plans: list[UpdatePlan] = []
    for service_flow in population:
        record = deployment.controller.flow_db[service_flow.flow_id]
        prior = record.version
        prepared = deployment.controller.prepare_update(
            service_flow.flow_id, list(service_flow.alternate)
        )
        plans.append(plan_from_prepared(prepared, prior_version=prior))
    policies = BatchPolicies(
        same_flow=True,
        shared_switch=(spec.switch_conflict == "serialize"),
        max_in_flight=spec.max_in_flight,
    )
    return plans, policies, link_capacities(deployment.topology)


def analyze_serve_spec(spec: "ServeSpec") -> InterferenceReport:
    """End-to-end: serve spec in, interference report out."""
    plans, policies, capacities = batch_from_serve_spec(spec)
    return detect_interference(
        plans,
        policies,
        capacities,
        congestion_aware=spec.congestion_aware,
        label=spec.name,
    )
