"""Static update-plan verification.

A prepared SL-/DL-P4Update update is, statically, a set of per-switch
rule installs plus the notification (ack) edges along which UNMs will
travel: the flow egress originates the first-layer chain, each
segment-egress gateway originates a second-layer chain, and every
other install is enabled only by a notification from its downstream
neighbour.  That structure is a DAG in every correct plan — so the
properties that would deadlock or corrupt an execution can be checked
*before* a single UIM is sent:

* a **cycle** among notify/dependency edges means no node can ever be
  the first to install (deadlock) — reported with the concrete cycle
  path as counterexample;
* an install **unreachable** from any originator will wait for a
  notification that never comes (orphaned rule install);
* a non-originator with **no incoming ack edge** can never be
  triggered (missing ack edge);
* the plan's **version** must strictly exceed the flow's current
  version, and every install must carry the same version — stale or
  mixed versions would be rejected in-flight by Alg. 1/2, wasting the
  whole round trip.

:func:`plan_from_prepared` lifts a
:class:`repro.core.controller.PreparedUpdate` into this model
(expanding §11 piggybacked UIMs); hand-built :class:`UpdatePlan`
objects express adversarial plans directly.  The controller runs
:func:`verify_plan` as an optional pre-execution gate
(``SimParams.verify_update_plans``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence, TypeVar

from repro.core.messages import UIM, UpdateType
from repro.loading import plain

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.controller import PreparedUpdate

#: A graph node :func:`find_cycle` can order: a switch name or a plan index.
_N = TypeVar("_N", str, int)


class PlanVerificationError(RuntimeError):
    """A plan failed static verification (raised by the gate)."""


@dataclass(frozen=True)
class PlanInstall:
    """One switch's part of the plan: install rules for ``version``."""

    node: str
    version: int
    distance: int
    is_flow_egress: bool = False
    is_segment_egress: bool = False
    is_ingress: bool = False
    is_gateway: bool = False

    @property
    def originator(self) -> bool:
        """Does this node originate a UNM chain (§8)?"""
        return self.is_flow_egress or self.is_segment_egress


@dataclass(frozen=True)
class PlanViolation:
    """One check failure, optionally with a counterexample path."""

    kind: str
    message: str
    counterexample: tuple[str, ...] = ()

    def format(self) -> str:
        text = f"{self.kind}: {self.message}"
        if self.counterexample:
            text += f"  [counterexample: {' -> '.join(self.counterexample)}]"
        return text


@dataclass
class UpdatePlan:
    """Static model of one flow update.

    ``notify_edges`` are directed ``(notifier, notified)`` pairs: the
    UNM travels from the notifier to the notified node, enabling its
    install.  ``dependencies`` are extra ``(waiter, prerequisite)``
    pairs (e.g. backward segments waiting on downstream segments);
    they join the same graph with reversed orientation (prerequisite
    enables waiter).
    """

    flow_id: int
    version: int
    prior_version: int
    update_type: UpdateType
    installs: tuple[PlanInstall, ...]
    notify_edges: tuple[tuple[str, str], ...]
    dependencies: tuple[tuple[str, str], ...] = ()
    description: str = ""
    # Footprint material (repro.analysis.interference): the path the
    # flow leaves, the path it moves onto, and its traffic size.
    # Empty/zero for hand-built plans that only exercise the per-plan
    # checks — interference analysis requires them.
    old_path: tuple[str, ...] = ()
    new_path: tuple[str, ...] = ()
    flow_size: float = 0.0


@dataclass
class PlanReport:
    """Outcome of verifying one plan."""

    plan: UpdatePlan
    violations: list[PlanViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def counterexample(self) -> tuple[str, ...]:
        for violation in self.violations:
            if violation.counterexample:
                return violation.counterexample
        return ()

    def describe(self) -> str:
        head = (
            f"plan flow={self.plan.flow_id} v{self.plan.version} "
            f"({self.plan.update_type.name}, {len(self.plan.installs)} installs)"
        )
        if self.ok:
            return f"{head}: OK"
        lines = [f"{head}: {len(self.violations)} violation(s)"]
        lines.extend(f"  - {v.format()}" for v in self.violations)
        return "\n".join(lines)


def plan_from_prepared(
    prepared: "PreparedUpdate",
    prior_version: int = 0,
    new_path: Optional[Sequence[str]] = None,
) -> UpdatePlan:
    """Lift a controller-prepared update into the static model.

    §11 compact updates are expanded: piggybacked UIMs become regular
    installs, notified by the UIM that carries them (the stack pops
    hop by hop along the chain, so the carrier transitively enables
    every stacked install).  Tree plans (``child_ports``) have no
    linear notification order and are rejected.
    """
    uims: list[UIM] = []
    for uim in prepared.uims:
        if uim.child_ports:
            raise ValueError(
                "destination-tree plans are not expressible as a linear "
                "update plan"
            )
        uims.append(uim)
        uims.extend(uim.piggyback)

    installs = tuple(
        PlanInstall(
            node=uim.target,
            version=uim.version,
            distance=uim.new_distance,
            is_flow_egress=uim.is_flow_egress,
            is_segment_egress=uim.is_segment_egress,
            is_ingress=uim.is_ingress,
            is_gateway=uim.is_gateway,
        )
        for uim in uims
    )

    # Notification edges run from distance d to distance d+1 (the UNM
    # travels egress -> ingress).  ``new_path`` (when known) is only a
    # cross-check: the distances already pin the order.
    by_distance: dict[int, list[str]] = {}
    for install in installs:
        by_distance.setdefault(install.distance, []).append(install.node)
    edges: list[tuple[str, str]] = []
    for install in installs:
        for upstream in by_distance.get(install.distance + 1, ()):
            edges.append((install.node, upstream))

    if new_path is not None:
        expected = {node: i for i, node in enumerate(new_path)}
        for a, b in edges:
            if a in expected and b in expected and expected[b] + 1 != expected[a]:
                raise ValueError(
                    f"distance labels disagree with the new path order "
                    f"({b} -> {a})"
                )

    return UpdatePlan(
        flow_id=prepared.flow_id,
        version=prepared.version,
        prior_version=prior_version,
        update_type=prepared.update_type,
        installs=installs,
        notify_edges=tuple(edges),
        old_path=tuple(prepared.old_path),
        new_path=(
            tuple(new_path) if new_path is not None
            else tuple(prepared.new_path)
        ),
        flow_size=max((uim.flow_size for uim in uims), default=0.0),
    )


def plan_to_dict(plan: UpdatePlan) -> dict:
    """JSON-safe encoding of a plan (``analyze interference`` batches)."""
    return plain(plan)


def plan_from_dict(data: dict) -> UpdatePlan:
    """Inverse of :func:`plan_to_dict` (validates the update type)."""
    return UpdatePlan(
        flow_id=int(data["flow_id"]),
        version=int(data["version"]),
        prior_version=int(data.get("prior_version", 0)),
        update_type=UpdateType[str(data["update_type"])],
        installs=tuple(
            PlanInstall(
                node=str(i["node"]),
                version=int(i["version"]),
                distance=int(i["distance"]),
                is_flow_egress=bool(i.get("is_flow_egress", False)),
                is_segment_egress=bool(i.get("is_segment_egress", False)),
                is_ingress=bool(i.get("is_ingress", False)),
                is_gateway=bool(i.get("is_gateway", False)),
            )
            for i in data.get("installs", ())
        ),
        notify_edges=tuple(
            (str(a), str(b)) for a, b in data.get("notify_edges", ())
        ),
        dependencies=tuple(
            (str(a), str(b)) for a, b in data.get("dependencies", ())
        ),
        description=str(data.get("description", "")),
        old_path=tuple(str(n) for n in data.get("old_path", ())),
        new_path=tuple(str(n) for n in data.get("new_path", ())),
        flow_size=float(data.get("flow_size", 0.0)),
    )


def find_cycle(
    successors: Mapping[_N, Iterable[_N]], starts: Optional[Iterable[_N]] = None
) -> Optional[list[_N]]:
    """First cycle a depth-first search finds, as ``[n1, ..., nk, n1]``.

    The search starts at ``starts`` (default: every key, sorted) and
    takes successors in sorted order; a node that is not a key has no
    successors.  None when no cycle is reachable.
    """
    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(successors, WHITE)
    for start in sorted(successors) if starts is None else starts:
        if color[start] != WHITE:
            continue
        stack: list[tuple[_N, int]] = [(start, 0)]
        path: list[_N] = []
        while stack:
            node, child_index = stack[-1]
            if child_index == 0:
                color[node] = GREY
                path.append(node)
            children = sorted(successors.get(node, ()))
            if child_index < len(children):
                stack[-1] = (node, child_index + 1)
                child = children[child_index]
                if color.get(child, BLACK) == GREY:
                    return path[path.index(child):] + [child]
                if color.get(child, BLACK) == WHITE:
                    stack.append((child, 0))
            else:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return None


def verify_plan(plan: UpdatePlan) -> PlanReport:
    """Run every static check over ``plan``."""
    report = PlanReport(plan)
    violations = report.violations

    # -- structural sanity --------------------------------------------------
    seen: set[str] = set()
    for install in plan.installs:
        if install.node in seen:
            violations.append(
                PlanViolation(
                    "duplicate-install",
                    f"node {install.node} receives two installs in one plan",
                )
            )
        seen.add(install.node)

    known = {install.node for install in plan.installs}
    for a, b in list(plan.notify_edges) + list(plan.dependencies):
        for node in (a, b):
            if node not in known:
                violations.append(
                    PlanViolation(
                        "unknown-node",
                        f"edge ({a} -> {b}) references {node}, which has "
                        f"no install in the plan",
                    )
                )

    # -- version monotonicity ----------------------------------------------
    if plan.version <= plan.prior_version:
        violations.append(
            PlanViolation(
                "version-regression",
                f"plan version {plan.version} does not exceed the flow's "
                f"current version {plan.prior_version}; every switch would "
                f"drop the UNM as outdated",
            )
        )
    for install in plan.installs:
        if install.version != plan.version:
            violations.append(
                PlanViolation(
                    "mixed-version",
                    f"install at {install.node} carries version "
                    f"{install.version}, plan is version {plan.version}",
                )
            )

    # -- originators ---------------------------------------------------------
    originators = [i for i in plan.installs if i.originator]
    if not originators:
        violations.append(
            PlanViolation(
                "no-originator",
                "no flow-egress or segment-egress install: nothing ever "
                "originates a UNM, the update cannot start",
            )
        )
    egresses = [i for i in plan.installs if i.is_flow_egress]
    if len(egresses) > 1:
        violations.append(
            PlanViolation(
                "egress-count",
                f"{len(egresses)} flow-egress installs "
                f"({', '.join(sorted(i.node for i in egresses))}); a "
                f"linear plan has exactly one",
            )
        )

    # -- ack-edge shape -------------------------------------------------------
    distance = {i.node: i.distance for i in plan.installs}
    for a, b in plan.notify_edges:
        if a in distance and b in distance and distance[b] != distance[a] + 1:
            violations.append(
                PlanViolation(
                    "distance-gap",
                    f"notify edge {a} (d={distance[a]}) -> {b} "
                    f"(d={distance[b]}) skips distances; Alg. 1/2 only "
                    f"accepts a UNM from the node one hop downstream",
                )
            )

    # -- deadlock (cycles) ---------------------------------------------------
    # Dependencies are oriented waiter -> prerequisite; flip them so
    # every edge means "enables", matching notify edges.
    enable_edges = list(plan.notify_edges) + [
        (prerequisite, waiter) for waiter, prerequisite in plan.dependencies
    ]
    enables: dict[str, list[str]] = {node: [] for node in known}
    for a, b in enable_edges:
        enables.setdefault(a, []).append(b)
    cycle = find_cycle(enables)
    if cycle is not None:
        violations.append(
            PlanViolation(
                "dependency-cycle",
                "notification/dependency edges form a cycle: every node "
                "on it waits for another, the update deadlocks",
                counterexample=tuple(cycle),
            )
        )

    # -- reachability ----------------------------------------------------------
    incoming: dict[str, int] = {node: 0 for node in known}
    adjacency: dict[str, list[str]] = {node: [] for node in known}
    for a, b in enable_edges:
        if a in known and b in known:
            adjacency[a].append(b)
            incoming[b] = incoming.get(b, 0) + 1
    reached = {i.node for i in originators}
    frontier = sorted(reached)
    while frontier:
        node = frontier.pop()
        for nxt in adjacency.get(node, ()):
            if nxt not in reached:
                reached.add(nxt)
                frontier.append(nxt)
    for install in plan.installs:
        if install.node in reached:
            continue
        if incoming.get(install.node, 0) == 0:
            violations.append(
                PlanViolation(
                    "missing-ack",
                    f"install at {install.node} has no incoming "
                    f"notification edge and is not an originator; it can "
                    f"never be triggered",
                )
            )
        else:
            origin_names = sorted(i.node for i in originators)
            violations.append(
                PlanViolation(
                    "orphan-install",
                    f"install at {install.node} is unreachable from any "
                    f"originator ({', '.join(origin_names) or 'none'}); "
                    f"its enabling notification never arrives",
                    counterexample=tuple(origin_names + [install.node]),
                )
            )

    return report
