"""Checkers for the three consistency properties of paper §5.

* **blackhole freedom** — every packet arriving at a switch has a
  matching forwarding rule: walking from each flow's ingress never
  reaches a rule-less non-egress node;
* **loop freedom** — the per-flow forwarding graph reachable from the
  ingress has no cycle;
* **congestion freedom** — per link, the sizes of flows currently
  routed over it sum to at most the link's capacity.

:class:`LiveChecker` subscribes to a :class:`~repro.sim.trace.Trace`
and re-validates the flows whose rules changed after every rule
change, which is how the property-based tests assert the paper's
theorems at every event instant rather than only at convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.consistency.state import ForwardingState
from repro.loading import plain
from repro.sim.trace import (
    KIND_LINK_DOWN,
    KIND_RULE_CHANGE,
    KIND_SWITCH_CRASH,
    Trace,
    TraceEvent,
)


@dataclass
class Violation:
    """One detected consistency violation."""

    time: float
    kind: str           # blackhole | loop | congestion
    flow_id: Optional[int]
    detail: str

    def to_dict(self) -> dict:
        """The JSON form every result type reports."""
        return plain(self)


@dataclass
class CheckResult:
    """Outcome of one full-state check."""

    ok: bool
    violations: list[Violation] = field(default_factory=list)

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


#: Float slack on the capacity comparison.
_SLACK = 1e-9


def _blackhole(time: float, flow_id: int, path: list[str]) -> Violation:
    return Violation(
        time=time,
        kind="blackhole",
        flow_id=flow_id,
        detail=f"no rule at {path[-1]!r} (walked {path})",
    )


def _loop(time: float, flow_id: int, path: list[str]) -> Violation:
    return Violation(
        time=time,
        kind="loop",
        flow_id=flow_id,
        detail=f"cycle via {path[-1]!r} (walked {path})",
    )


def _congestion(time: float, a: str, b: str, used: float, capacity: float) -> Violation:
    return Violation(
        time=time,
        kind="congestion",
        flow_id=None,
        detail=f"link {a}->{b} carries {used:.3f} > capacity {capacity:.3f}",
    )


def _walk_violations(
    state: ForwardingState, time: float
) -> tuple[list[Violation], list[Violation]]:
    """(blackholes, loops) from one walk per ``(flow, ingress)``, each
    list in flow-id then ingress order."""
    blackholes = []
    loops = []
    for flow_id in state.flow_ids():
        for ingress in state.ingresses(flow_id):
            path, outcome = state.walk(flow_id, ingress=ingress)
            if outcome == "blackhole":
                blackholes.append(_blackhole(time, flow_id, path))
            elif outcome == "loop":
                loops.append(_loop(time, flow_id, path))
    return blackholes, loops


def check_blackhole_freedom(
    state: ForwardingState, time: float = 0.0
) -> CheckResult:
    """Walk every flow from each ingress; flag rule-less intermediate nodes."""
    violations, _ = _walk_violations(state, time)
    return CheckResult(ok=not violations, violations=violations)


def check_loop_freedom(state: ForwardingState, time: float = 0.0) -> CheckResult:
    """Flag flows whose ingress-reachable forwarding graph cycles."""
    _, violations = _walk_violations(state, time)
    return CheckResult(ok=not violations, violations=violations)


def check_congestion_freedom(
    state: ForwardingState, time: float = 0.0
) -> CheckResult:
    """Sum deliverable flows' sizes per *directed* link use.

    Capacity is modelled per direction (each node reserves on its own
    outgoing port, which is what makes the paper's §7.4 scheduler a
    purely local decision); the configured capacity of the undirected
    link applies to each direction independently.
    """
    load: dict[tuple[str, str], float] = {}
    for flow_id in state.flow_ids():
        _, _, size = state.flow_info(flow_id)
        for a, b in state.active_edges(flow_id):
            load[(a, b)] = load.get((a, b), 0.0) + size
    violations = []
    for (a, b), used in sorted(load.items()):
        capacity = state.capacity(a, b)
        if used > capacity + _SLACK:
            violations.append(_congestion(time, a, b, used, capacity))
    return CheckResult(ok=not violations, violations=violations)


def check_all(state: ForwardingState, time: float = 0.0) -> CheckResult:
    """Blackholes, then loops, then congestion."""
    blackholes, loops = _walk_violations(state, time)
    violations = blackholes + loops
    violations.extend(check_congestion_freedom(state, time).violations)
    return CheckResult(ok=not violations, violations=violations)


_Key = tuple[int, str]          # (flow id, ingress)
_Edge = tuple[str, str]         # directed link use

_NO_EDGES: frozenset[_Edge] = frozenset()

_WATCHED_KINDS = (KIND_RULE_CHANGE, KIND_LINK_DOWN, KIND_SWITCH_CRASH)


class LiveChecker:
    """Re-checks consistency after every traced rule change.

    Blackhole checking during a *fresh install* is deliberately scoped:
    before a flow's first complete path exists there is trivially "a
    blackhole" on the walk, which the paper does not count (no packets
    are being sent on a not-yet-established flow).  A flow therefore
    only participates in blackhole checks once it has been deliverable
    at least once (``armed``).  Loop and congestion checks always apply.

    Topology failures (repro.chaos) are *environmental*, not protocol
    violations: when a link goes down or a switch crashes, every flow
    whose delivered walk traversed the failed element is disarmed — it
    is physically broken, and the gap until the controller reroutes it
    must not count as a protocol blackhole.  The flow re-arms the
    moment a complete path exists again, after which blackhole
    detection applies as before.

    The check is *incremental*: its cost follows the flows whose rules
    changed since the last event, not the flow count.  The checker
    caches the last walk of every ``(flow, ingress)``, each flow's
    active edges, each directed edge's member flows and load, and the
    three sets of what currently violates (looping flows, overloaded
    edges, armed-and-blackholed keys).  ``ForwardingState.observe``
    names the flows to re-walk; every event then reports from the
    violating sets.  What it reports is specified by the full-state
    reference (``tests/consistency/reference_checker.py``: re-run
    ``check_loop_freedom`` / ``check_congestion_freedom`` and re-walk
    every flow at every ``rule_change``), kept byte-for-byte because
    violations are serialised into committed result signatures:

    * a violation that persists is reported again at every later
      ``rule_change`` of any flow, stamped with that event's time, in
      the order loops (flow id, then ingress order), congestion (edges
      sorted), blackholes (flow id, then ingress order) — so a tag
      flip that records N ``rule_change`` events reports N times;
    * a link's load is the float sum of its member flows' sizes in
      ascending flow-id order (a touched edge is re-summed, never
      adjusted in place), a tree counting an edge once across leaves;
    * arming happens only at a ``rule_change``, for every key that
      delivers at that instant, whichever flow the event was about —
      so a key disarmed by a failure re-arms at the next
      ``rule_change`` if its stale rules still form a complete path.
    """

    def __init__(self, state: ForwardingState, trace: Trace) -> None:
        self.state = state
        self.violations: list[Violation] = []
        self._armed: set[_Key] = set()
        # Flows mutated since the last refresh (filled by the state).
        self._touched = state.observe()
        self._capacity_revision = state.capacity_revision
        # Per flow: the ingresses and size its caches were built from.
        self._ingresses: dict[int, tuple[str, ...]] = {}
        self._size: dict[int, float] = {}
        self._walks: dict[_Key, tuple[list[str], str]] = {}
        self._edges: dict[int, set[_Edge]] = {}      # delivered walks' edges
        self._members: dict[_Edge, set[int]] = {}
        self._load: dict[_Edge, float] = {}
        # What violates right now.
        self._looping: set[int] = set()
        self._overloaded: set[_Edge] = set()
        self._lost: set[_Key] = set()
        # Keys to arm at the next rule_change if they still deliver.
        self._to_arm: set[_Key] = set()
        trace.subscribe(self._on_event, _WATCHED_KINDS)

    # -- cache maintenance -----------------------------------------------------

    def _refresh(self) -> None:
        """Bring the caches up to the state's current rules."""
        if self._touched:
            stale_edges: set[_Edge] = set()
            for flow_id in self._touched:
                self._rewalk(flow_id, stale_edges)
            self._touched.clear()
            for edge in stale_edges:
                self._resum(edge)
        if self.state.capacity_revision != self._capacity_revision:
            self._capacity_revision = self.state.capacity_revision
            for edge in self._load:
                self._weigh(edge)

    def _rewalk(self, flow_id: int, stale_edges: set[_Edge]) -> None:
        """Re-walk one flow; collect the edges whose load it changed."""
        state = self.state
        ingresses = state.ingresses(flow_id)
        size = state.flow_info(flow_id)[2]
        for ingress in self._ingresses.get(flow_id, ()):
            if ingress not in ingresses:    # re-registered elsewhere
                self._walks.pop((flow_id, ingress), None)
                self._lost.discard((flow_id, ingress))
        self._ingresses[flow_id] = ingresses
        edges: set[_Edge] = set()
        looping = False
        for ingress in ingresses:
            key = (flow_id, ingress)
            walk = state.walk(flow_id, ingress=ingress)
            self._walks[key] = walk
            path, outcome = walk
            if outcome == "blackhole" and key in self._armed:
                self._lost.add(key)
                continue
            self._lost.discard(key)
            if outcome == "delivered":
                edges.update(zip(path, path[1:]))
                self._to_arm.add(key)
            elif outcome == "loop":
                looping = True
        if looping:
            self._looping.add(flow_id)
        else:
            self._looping.discard(flow_id)
        old = self._edges.get(flow_id, _NO_EDGES)
        if edges != old:
            self._edges[flow_id] = edges
            for edge in old - edges:
                self._members[edge].discard(flow_id)
            for edge in edges - old:
                self._members.setdefault(edge, set()).add(flow_id)
            stale_edges |= old ^ edges
        if self._size.get(flow_id) != size:
            self._size[flow_id] = size
            stale_edges |= edges

    def _resum(self, edge: _Edge) -> None:
        members = self._members[edge]
        if not members:
            del self._members[edge]
            del self._load[edge]
            self._overloaded.discard(edge)
            return
        used = 0.0
        for flow_id in sorted(members):     # the reference's sum order
            used += self._size[flow_id]
        self._load[edge] = used
        self._weigh(edge)

    def _weigh(self, edge: _Edge) -> None:
        if self._load[edge] > self.state.capacity(*edge) + _SLACK:
            self._overloaded.add(edge)
        else:
            self._overloaded.discard(edge)

    # -- events ------------------------------------------------------------------

    def _on_event(self, event: TraceEvent) -> None:
        if event.kind == KIND_RULE_CHANGE:
            self._check(event.time)
        elif event.kind == KIND_SWITCH_CRASH:
            self._disarm_through(event.node, None)
        elif event.kind == KIND_LINK_DOWN:
            peer = event.detail.get("peer")
            if peer is not None:
                self._disarm_through(None, frozenset((event.node, peer)))

    def _check(self, time: float) -> None:
        """Arm what delivers, then report everything that violates."""
        self._refresh()
        if self._to_arm:
            for key in self._to_arm:
                walk = self._walks.get(key)
                if walk is not None and walk[1] == "delivered":
                    self._armed.add(key)
            self._to_arm.clear()
        if not (self._looping or self._overloaded or self._lost):
            return
        state = self.state
        report = self.violations.append
        for flow_id in sorted(self._looping):
            for ingress in state.ingresses(flow_id):
                path, outcome = self._walks[(flow_id, ingress)]
                if outcome == "loop":
                    report(_loop(time, flow_id, path))
        for a, b in sorted(self._overloaded):
            report(_congestion(time, a, b, self._load[(a, b)], state.capacity(a, b)))
        for flow_id in sorted({flow_id for flow_id, _ in self._lost}):
            for ingress in state.ingresses(flow_id):
                if (flow_id, ingress) in self._lost:
                    report(
                        Violation(
                            time=time,
                            kind="blackhole",
                            flow_id=flow_id,
                            detail=f"established path from {ingress!r} lost",
                        )
                    )

    def _disarm_through(
        self, node: Optional[str], edge: Optional[frozenset[str]]
    ) -> None:
        """Disarm flows whose current walk crosses the failed element.

        Rules may have changed without an event since the last check,
        so the cached walks are refreshed first; nothing is armed here.
        """
        self._refresh()
        for key in list(self._armed):
            walk = self._walks.get(key)
            if walk is None:
                # Armed under an ingress the flow has since left.
                walk = self.state.walk(key[0], ingress=key[1])
            path = walk[0]
            if (node is not None and node in path) or (
                edge is not None
                and any(frozenset(pair) == edge for pair in zip(path, path[1:]))
            ):
                self._armed.discard(key)
                self._lost.discard(key)
                self._to_arm.add(key)

    @property
    def ok(self) -> bool:
        return not self.violations
