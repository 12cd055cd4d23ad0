"""A queryable snapshot of the network's forwarding state.

``ForwardingState`` tracks, per flow, each node's current next hop —
the ground truth the consistency checker reasons about.  Switch agents
mirror every rule change into it (via the trace or directly), so the
checker sees exactly the mixed old/new states that arise mid-update.

The state also tells observers *what changed*: :meth:`observe` hands
out a touched-set that every later ``set_rule`` / ``register_flow`` /
``register_tree`` adds its flow id to, and ``capacity_revision`` counts
``set_capacity`` calls.  Many mutations carry no trace event (initial
installs) or several share one (a §11 tag flip), so this — not the
event stream — is what an incremental checker invalidates on.
"""

from __future__ import annotations

from typing import Optional


class ForwardingState:
    """Per-flow next-hop maps plus per-link flow reservations."""

    def __init__(self) -> None:
        # flow_id -> {node -> next_hop}
        self._next_hop: dict[int, dict[str, str]] = {}
        # flow_id -> (ingresses tuple, egress, size); unicast flows
        # have one ingress, destination trees (§11) have one per leaf.
        self._flows: dict[int, tuple[tuple[str, ...], str, float]] = {}
        # frozenset({a,b}) -> capacity
        self._capacity: dict[frozenset[str], float] = {}
        #: Bumped by every ``set_capacity``.
        self.capacity_revision = 0
        # One touched-set per observer (see ``observe``).
        self._observers: list[set[int]] = []

    # -- change notification ---------------------------------------------------

    def observe(self) -> set[int]:
        """Register an observer; returns its own touched-set.

        The set starts with every registered flow and gains the id of
        each registered flow a later mutation touches.  The observer
        drains it (``clear()``) when it has caught up; each observer
        gets its own set, so several can watch one state.
        """
        touched = set(self._flows)
        self._observers.append(touched)
        return touched

    def _touch(self, flow_id: int) -> None:
        for touched in self._observers:
            touched.add(flow_id)

    # -- flows ---------------------------------------------------------------

    def register_flow(self, flow_id: int, ingress: str, egress: str, size: float) -> None:
        self._flows[flow_id] = ((ingress,), egress, size)
        self._next_hop.setdefault(flow_id, {})
        self._touch(flow_id)

    def register_tree(
        self, tree_id: int, leaves: list[str], egress: str, size: float
    ) -> None:
        """Destination-based routing (§11): one state entry shared by
        every source, walked from each leaf."""
        self._flows[tree_id] = (tuple(leaves), egress, size)
        self._next_hop.setdefault(tree_id, {})
        self._touch(tree_id)

    def flow_ids(self) -> list[int]:
        return sorted(self._flows)

    def flow_info(self, flow_id: int) -> tuple[str, str, float]:
        ingresses, egress, size = self._flows[flow_id]
        return ingresses[0], egress, size

    def ingresses(self, flow_id: int) -> tuple[str, ...]:
        return self._flows[flow_id][0]

    # -- rules -----------------------------------------------------------------

    def set_rule(self, flow_id: int, node: str, next_hop: Optional[str]) -> None:
        """Install/replace (or with None: remove) a forwarding rule."""
        rules = self._next_hop.setdefault(flow_id, {})
        if next_hop is None:
            rules.pop(node, None)
        else:
            rules[node] = next_hop
        # Rules of a not-yet-registered flow are picked up when it
        # registers.
        if flow_id in self._flows:
            self._touch(flow_id)

    def next_hop(self, flow_id: int, node: str) -> Optional[str]:
        return self._next_hop.get(flow_id, {}).get(node)

    def rules(self, flow_id: int) -> dict[str, str]:
        return dict(self._next_hop.get(flow_id, {}))

    def flows_with_rule_at(self, node: str) -> list[int]:
        """Registered flows holding a rule at ``node``, ascending."""
        return sorted(
            flow_id
            for flow_id, rules in self._next_hop.items()
            if node in rules and flow_id in self._flows
        )

    # -- capacity --------------------------------------------------------------

    def set_capacity(self, a: str, b: str, capacity: float) -> None:
        self._capacity[frozenset((a, b))] = capacity
        self.capacity_revision += 1

    def capacity(self, a: str, b: str) -> float:
        return self._capacity.get(frozenset((a, b)), float("inf"))

    def capacities(self) -> dict[frozenset[str], float]:
        return dict(self._capacity)

    # -- traversal ----------------------------------------------------------------

    def walk(
        self, flow_id: int, max_hops: int = 10_000, ingress: Optional[str] = None
    ) -> tuple[list[str], str]:
        """Follow next hops from the flow's ingress (or a given one).

        Returns ``(visited_nodes, outcome)`` where outcome is one of
        ``"delivered"`` (egress reached), ``"blackhole"`` (no rule at a
        non-egress node) or ``"loop"`` (a node repeated).
        """
        ingresses, egress, _ = self._flows[flow_id]
        if ingress is None:
            ingress = ingresses[0]
        rules = self._next_hop.get(flow_id, {})
        visited = [ingress]
        seen = {ingress}
        current = ingress
        for _ in range(max_hops):
            if current == egress:
                return visited, "delivered"
            nxt = rules.get(current)
            if nxt is None:
                return visited, "blackhole"
            if nxt in seen:
                visited.append(nxt)
                return visited, "loop"
            visited.append(nxt)
            seen.add(nxt)
            current = nxt
        return visited, "loop"

    def active_edges(self, flow_id: int) -> list[tuple[str, str]]:
        """Edges the flow currently traverses (empty when not
        deliverable); for trees, the union over all leaves' walks."""
        edges: list[tuple[str, str]] = []
        seen: set[tuple[str, str]] = set()
        for ingress in self.ingresses(flow_id):
            path, outcome = self.walk(flow_id, ingress=ingress)
            if outcome != "delivered":
                continue
            for edge in zip(path, path[1:]):
                if edge not in seen:
                    seen.add(edge)
                    edges.append(edge)
        return edges
