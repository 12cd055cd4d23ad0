"""ez-Segway baseline (Nguyen et al., SOSR'17) — as re-implemented by
the P4Update authors for their evaluation (§9.1).

Control plane: for each flow update, the controller splits the path
difference into segments and classifies them *in_loop* / *not_in_loop*
(our backward/forward classification).  It encodes, per switch, the
new rule, the segment membership, the update order within the segment
(driven from the segment egress) and the inter-segment dependency.
All role messages are pushed at once.

Data plane: each segment updates sequentially from its egress gateway
upstream via GoodToMove messages.  not_in_loop segments start as soon
as their egress gateway holds its role message; in_loop segments start
only after the dependent downstream segment completed (the shared
gateway flipped).  There is **no verification**: a switch applies
whatever role message it received once its GoodToMove arrives — which
is exactly why the Fig. 2 out-of-order scenario loops.

Congestion freedom uses the centralized dependency graph with static
priorities (§9.1): the controller pre-computes, per directed link, the
order in which flow moves may claim capacity; switches respect both
the remaining capacity and that static order.  Computing this graph is
the Fig. 8b control-plane cost.

Consecutive updates of the same flow are serialized by the controller
(it waits for the completion notification before pushing the next
update) — the behaviour §4.2 contrasts with P4Update's fast-forward.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

import numpy as np

from repro.baselines.central import LOCAL_DELIVER
from repro.consistency.state import ForwardingState
from repro.core.contract import FlowRecord, UpdateController
from repro.core.labeling import distance_labels
from repro.core.segmentation import Segment, compute_segments
from repro.params import SimParams
from repro.sim.node import Node
from repro.sim.trace import KIND_RULE_CHANGE
from repro.topo.graph import Topology
from repro.traffic.flows import Flow


# -- messages ------------------------------------------------------------------


class RoleMessage(NamedTuple):
    """Controller -> switch: one switch's part of one flow update.

    Tuple-backed like :class:`repro.core.messages.UIM`, so Fig. 8
    compares two preparations and not two value classes."""

    target: str
    flow_id: int
    update_id: int
    new_next_hop: Optional[str]       # None = deliver locally (egress)
    segment_index: int
    upstream_in_segment: Optional[str]  # neighbour to notify after updating
    is_segment_egress: bool
    is_segment_ingress: bool
    is_flow_ingress: bool
    in_loop: bool
    depends_on_flip: bool             # in_loop: wait for own flip in seg k+1
    flow_size: float = 0.0
    # Static congestion priority: smaller = may claim capacity earlier.
    move_rank: int = 0

    def describe(self) -> str:
        kind = "in_loop" if self.in_loop else "not_in_loop"
        return f"Role(to={self.target} flow={self.flow_id} seg={self.segment_index} {kind})"


@dataclass(frozen=True)
class GoodToMove:
    """Data-plane notification: downstream is ready, you may update."""

    flow_id: int
    update_id: int
    segment_index: int

    def describe(self) -> str:
        return f"GTM(flow={self.flow_id} seg={self.segment_index})"


@dataclass(frozen=True)
class CleanupMsg:
    """Old-link cleanup after a flip (same §11 mechanism as P4Update,
    applied to the baseline for a fair capacity model)."""

    flow_id: int
    update_id: int

    def describe(self) -> str:
        return f"Cleanup(flow={self.flow_id} u={self.update_id})"


@dataclass(frozen=True)
class DoneNotification:
    """Switch -> controller: one segment's ingress gateway flipped.

    The update is complete when every segment reported."""

    flow_id: int
    update_id: int
    segment_index: int
    reporter: str

    def describe(self) -> str:
        return f"Done(flow={self.flow_id} u={self.update_id} seg={self.segment_index})"


# -- control-plane preparation ---------------------------------------------------


@dataclass(frozen=True)
class EzPreparedUpdate:
    flow_id: int
    update_id: int
    segments: tuple[Segment, ...]
    roles: tuple[RoleMessage, ...]

    @property
    def version(self) -> int:
        """The update contract's handle: ez-Segway's update id."""
        return self.update_id


def _ez_classify_in_loop(old_path: list[str], segment: Segment) -> bool:
    """ez-Segway's in_loop detection: explicit cycle search on the
    mixed forwarding graph (old rules with the segment's ingress
    gateway flipped onto the new sub-path).

    This is deliberately the graph-analytic way ez-Segway's control
    plane works — it is what makes its preparation more expensive than
    P4Update's distance labeling (Fig. 8a).
    """
    ingress_gw = segment.ingress_gateway
    mixed_next: dict[str, str] = {}
    for a, b in zip(old_path, old_path[1:]):
        if a != ingress_gw:
            mixed_next[a] = b
    for a, b in zip(segment.nodes, segment.nodes[1:]):
        mixed_next[a] = b
    # Follow the mixed forwarding state from the flipped gateway.
    seen: set[str] = set()
    node = ingress_gw
    while node in mixed_next:
        if node in seen:
            return True
        seen.add(node)
        node = mixed_next[node]
    return node in seen


def _flip_conflict(old_path: list[str], first: Segment, second: Segment) -> bool:
    """Does flipping ``first``'s gateway loop while ``second`` is still
    on the old rules — but not once ``second`` has flipped too?

    ez-Segway's planner evaluates segment *pairs* this way to build
    the execution dependencies.
    """
    if not _ez_classify_in_loop(old_path, first):
        return False
    flipped_gateways = {first.ingress_gateway, second.ingress_gateway}
    mixed_next: dict[str, str] = {}
    for a, b in zip(old_path, old_path[1:]):
        if a not in flipped_gateways:
            mixed_next[a] = b
    for segment in (first, second):
        for a, b in zip(segment.nodes, segment.nodes[1:]):
            mixed_next[a] = b
    node, seen = first.ingress_gateway, set()
    while node in mixed_next:
        if node in seen:
            return False          # still loops with both: not resolved by j
        seen.add(node)
        node = mixed_next[node]
    return True                    # j's flip resolves i's loop: i depends on j


def _segment_dependencies(old_path: list[str], segments: list[Segment]) -> dict[int, bool]:
    """Which segments must wait for a downstream segment (in_loop).

    Performs the pairwise dependency analysis of ez-Segway's control
    plane: every in_loop segment is checked against every other
    segment to find which flips resolve its loop — an O(k^2) pass of
    mixed-graph cycle searches (the Fig. 8a cost P4Update's distance
    labeling avoids).
    """
    dependencies: dict[int, bool] = {}
    for i, segment in enumerate(segments):
        in_loop = _ez_classify_in_loop(old_path, segment)
        if in_loop:
            # Find the resolving segments (the runtime only needs the
            # fact that the dependency exists; execution waits on the
            # shared gateway's own flip).
            _resolvers = [
                j for j, other in enumerate(segments)
                if j != i and _flip_conflict(old_path, segment, other)
            ]
        dependencies[i] = in_loop
    return dependencies


def _encode_segment_order(
    segments: list[Segment], dependencies: dict[int, bool]
) -> dict[str, dict]:
    """Per-node segment role info (the 'update order encoded into the
    egress of each segment')."""
    roles: dict[str, dict] = {}
    for index, segment in enumerate(segments):
        order = list(reversed(segment.nodes))       # egress-first order
        for position, node in enumerate(order):
            upstream = order[position + 1] if position + 1 < len(order) else None
            roles.setdefault(node, {})[index] = {
                "upstream": upstream,
                "position": position,
                "is_segment_egress": node == segment.egress_gateway,
                "is_segment_ingress": node == segment.ingress_gateway,
                "in_loop": dependencies[index],
            }
    return roles


def congestion_dependency_graph(
    flows: list[Flow],
    capacities: dict[frozenset, float],
) -> dict[tuple[int, tuple[str, str]], int]:
    """The centralized inter-flow dependency computation (Fig. 8b cost).

    Builds the full move-dependency graph: one vertex per (flow, new
    directed link) move; an edge A -> B when move A needs capacity that
    only frees once move B vacated the link.  Static priorities (move
    ranks) come from a topological order of the graph's condensation —
    cycles (deadlock potential) get rank by strongly-connected
    component order, mirroring how ez-Segway breaks ties with its
    third priority class.  networkx is imported here, not at module
    level: only this centralized computation needs it, and its calls
    are most of the Fig. 8b count.
    """
    import networkx as nx

    moves: dict[tuple[int, tuple[str, str]], int] = {}
    graph = nx.DiGraph()
    occupants: dict[tuple[str, str], list[Flow]] = {}
    for flow in flows:
        for edge in flow.old_edges():
            occupants.setdefault(edge, []).append(flow)
    # Current load per directed link.
    load: dict[tuple[str, str], float] = {
        edge: sum(f.size for f in fs) for edge, fs in occupants.items()
    }

    for flow in flows:
        for edge in flow.new_edges():
            if edge in flow.old_edges():
                continue
            move = (flow.flow_id, edge)
            graph.add_node(move)
            capacity = capacities.get(frozenset(edge), float("inf"))
            remaining = capacity - load.get(edge, 0.0)
            if remaining >= flow.size:
                continue
            # Needs somebody to vacate: depend on every occupant that
            # moves away from this link.
            for occupant in occupants.get(edge, []):
                if occupant.flow_id == flow.flow_id:
                    continue
                for their_edge in occupant.new_edges():
                    if their_edge == edge:
                        continue
                    graph.add_edge(move, (occupant.flow_id, their_edge))

    # Ranks: reverse topological order over the condensation, so that
    # moves others depend on get smaller ranks (move first).
    condensation = nx.condensation(graph)
    order = list(nx.topological_sort(condensation))
    rank_of_scc = {scc: len(order) - i for i, scc in enumerate(order)}
    for node, scc in condensation.graph["mapping"].items():
        moves[node] = rank_of_scc[scc]
    return moves


def prepare_ez_update(
    flow: Flow,
    old_path: list[str],
    new_path: list[str],
    update_id: int,
    move_ranks: Optional[dict] = None,
) -> EzPreparedUpdate:
    """Full control-plane preparation for one flow update.

    Only *non-trivial* segments (containing at least one rule change
    w.r.t. the controller's believed old path) produce role messages —
    switches whose rules do not change receive nothing, which is why
    the §4.1 out-of-order scenario loops: v2's pending (b) change is
    not re-sent by (c).
    """
    all_segments = compute_segments(old_path, new_path)
    _ = distance_labels(new_path)                  # ez also labels paths
    old_next = {a: b for a, b in zip(old_path, old_path[1:])}
    new_next = {a: b for a, b in zip(new_path, new_path[1:])}
    # The control plane analyses EVERY segment (it cannot know which
    # are trivial before classifying them — this full-path pass is the
    # Fig. 8a preparation cost)...
    all_dependencies = _segment_dependencies(old_path, all_segments)
    all_roles = _encode_segment_order(all_segments, all_dependencies)
    # ...but only non-trivial segments produce role messages.  A
    # segment owns exactly its interior installs and its ingress
    # gateway's flip (the egress gateway's own rule belongs to the
    # next segment downstream).
    active_indices = [
        i for i, seg in enumerate(all_segments)
        if seg.interior
        or old_next.get(seg.ingress_gateway) != new_next.get(seg.ingress_gateway)
    ]
    index_map = {old_i: new_i for new_i, old_i in enumerate(active_indices)}
    segments = [all_segments[i] for i in active_indices]
    dependencies = {
        index_map[i]: all_dependencies[i] for i in active_indices
    }
    node_roles = {
        node: {
            index_map[i]: info
            for i, info in per_node.items()
            if i in index_map
        }
        for node, per_node in all_roles.items()
    }

    next_hop = {a: b for a, b in zip(new_path, new_path[1:])}
    roles: list[RoleMessage] = []
    for node in new_path:
        for segment_index, info in sorted(node_roles.get(node, {}).items()):
            # Skip duplicate role for shared gateways: emit the role of
            # the segment in which the node actually updates (a shared
            # gateway flips in the downstream segment, where it is the
            # segment ingress).
            if info["is_segment_egress"] and segment_index + 1 < len(segments):
                # This node's flip belongs to segment_index (as its
                # ingress) handled in another iteration; here it only
                # drives the chain.
                pass
            move_rank = 0
            if move_ranks is not None and node in next_hop:
                move_rank = move_ranks.get(
                    (flow.flow_id, (node, next_hop[node])), 0
                )
            # An in_loop segment waits for its egress gateway's own
            # flip (in the downstream segment).  When that gateway's
            # rule does not change, the dependency is trivially
            # satisfied and the chain may start immediately.
            gateway_flips = old_next.get(node) != new_next.get(node)
            roles.append(
                RoleMessage(
                    target=node,
                    flow_id=flow.flow_id,
                    update_id=update_id,
                    new_next_hop=next_hop.get(node),
                    segment_index=segment_index,
                    upstream_in_segment=info["upstream"],
                    is_segment_egress=info["is_segment_egress"],
                    is_segment_ingress=info["is_segment_ingress"],
                    is_flow_ingress=node == new_path[0],
                    in_loop=info["in_loop"],
                    depends_on_flip=(
                        info["is_segment_egress"]
                        and dependencies[segment_index]
                        and gateway_flips
                    ),
                    flow_size=flow.size,
                    move_rank=move_rank,
                )
            )
    return EzPreparedUpdate(
        flow_id=flow.flow_id,
        update_id=update_id,
        segments=tuple(segments),
        roles=tuple(roles),
    )


# -- data plane ----------------------------------------------------------------------


class EzSegwaySwitch(Node):
    """One ez-Segway switch (OpenFlow switch + local controller)."""

    def __init__(
        self,
        name: str,
        params: Optional[SimParams] = None,
        rng: Optional[np.random.Generator] = None,
        forwarding_state: Optional[ForwardingState] = None,
    ) -> None:
        super().__init__(name)
        self.params = params if params is not None else SimParams()
        self.rng = rng if rng is not None else self.params.rng()
        self.forwarding_state = forwarding_state
        # (flow_id, update_id, segment_index) -> RoleMessage
        self.roles: dict[tuple[int, int, int], RoleMessage] = {}
        # Applied next hops: flow_id -> node name (or LOCAL_DELIVER).
        self.rules: dict[int, str] = {}
        # Flipped flags: (flow_id, update_id) -> True once this node
        # applied its new rule for that update.
        self.flipped: dict[tuple[int, int], bool] = {}
        # GTMs that arrived before the role message.
        self._pending_gtm: list[GoodToMove] = []
        # Congestion: per-next-hop reserved capacity (directed).
        self.congestion_aware = False
        self.link_capacity: dict[str, float] = {}
        self.link_reserved: dict[str, float] = {}
        self.flow_sizes: dict[int, float] = {}
        # moves already performed on each link (for static rank order).
        self._moved_ranks: dict[str, set[int]] = {}
        self._expected_ranks: dict[str, list[int]] = {}
        # Roles waiting for capacity, with their poll count.  Non-empty
        # exactly while one _retry_deferred is pending.
        self._deferred: list[tuple[RoleMessage, int]] = []
        # Single processing pipeline, like the P4 switches: messages
        # serialise through the local controller/switch.
        self._busy_until = 0.0
        # Poll count after which the static move order is relaxed
        # (deadlock breaking; the capacity check always remains).
        self.static_order_patience = 200
        # Admitted-but-not-yet-flipped moves: flow -> next hop whose
        # capacity is already reserved (atomic-move semantics: both
        # the old and the new link are held during the transition).
        self._in_transit: dict[int, str] = {}

    # -- wiring -------------------------------------------------------------

    def set_link(self, neighbor: str, capacity: float) -> None:
        self.link_capacity[neighbor] = capacity
        self.link_reserved.setdefault(neighbor, 0.0)

    def install_initial(self, flow_id: int, next_hop: Optional[str], size: float) -> None:
        hop = next_hop if next_hop is not None else LOCAL_DELIVER
        self.rules[flow_id] = hop
        self.flow_sizes[flow_id] = size
        if hop != LOCAL_DELIVER:
            self.link_reserved[hop] = self.link_reserved.get(hop, 0.0) + size
        if self.forwarding_state is not None and hop != LOCAL_DELIVER:
            self.forwarding_state.set_rule(flow_id, self.name, hop)

    def expect_ranks(self, neighbor: str, ranks: list[int]) -> None:
        """Static move order for one outgoing link (congestion mode)."""
        self._expected_ranks[neighbor] = sorted(ranks)

    # -- control plane ---------------------------------------------------------

    def handle_control(self, message: Any) -> None:
        if not isinstance(message, RoleMessage):
            return
        key = (message.flow_id, message.update_id, message.segment_index)
        self.roles[key] = message
        self.flow_sizes.setdefault(message.flow_id, message.flow_size)
        if message.is_segment_egress and not message.depends_on_flip:
            # not_in_loop segment: drive the chain immediately.
            self._drive_chain(message)
        # Replay any GTM that raced ahead of this role message.
        self._replay_pending()

    def _drive_chain(self, role: RoleMessage) -> None:
        """Send GoodToMove to the upstream neighbour in the segment."""
        if role.upstream_in_segment is None:
            return
        gtm = GoodToMove(
            flow_id=role.flow_id,
            update_id=role.update_id,
            segment_index=role.segment_index,
        )
        port = self.network.port_towards(self.name, role.upstream_in_segment)
        delay = self.params.pipeline_delay.sample(self.rng)
        self.engine.schedule(delay, self.send, port, gtm)

    # -- data plane --------------------------------------------------------------

    def _enqueue(self, handler, *args) -> None:
        """Serialise message processing through the one pipeline."""
        service = self.params.pipeline_delay.sample(self.rng)
        start = max(self.engine.now, self._busy_until)
        finish = start + service
        self._busy_until = finish
        self.engine.schedule(finish - self.engine.now, handler, *args)

    def handle_message(self, message: Any) -> None:
        if isinstance(message, GoodToMove):
            self._enqueue(self._handle_gtm, message)
        elif isinstance(message, CleanupMsg):
            self._enqueue(self._handle_cleanup, message)
        elif hasattr(message, "has_valid") and message.has_valid("probe"):
            self._enqueue(self._forward_probe, message)

    def _handle_cleanup(self, msg: CleanupMsg) -> None:
        has_role = any(
            key[0] == msg.flow_id and key[1] >= msg.update_id
            for key in self.roles
        )
        if has_role:
            return  # part of the current configuration
        hop = self.rules.get(msg.flow_id)
        if hop is None or hop == LOCAL_DELIVER:
            # No rule to clean, or this is the flow egress — its
            # local-delivery rule is part of every configuration.
            return
        del self.rules[msg.flow_id]
        if self.congestion_aware:
            size = self.flow_sizes.get(msg.flow_id, 0.0)
            self.link_reserved[hop] = self.link_reserved.get(hop, 0.0) - size
        if self.forwarding_state is not None:
            self.forwarding_state.set_rule(msg.flow_id, self.name, None)
        self.network.trace.record(
            self.now, KIND_RULE_CHANGE, self.name,
            flow=msg.flow_id, next_hop=None, cleanup=True,
        )
        port = self.network.port_towards(self.name, hop)
        self.send(port, msg)

    def _forward_probe(self, packet: Any) -> None:
        from repro.sim.trace import (
            KIND_PACKET_DELIVERED,
            KIND_PACKET_LOST,
            KIND_PACKET_RECV,
        )

        flow_id = packet.header("probe")["flow_id"]
        seq = packet.header("probe")["seq"]
        self.network.trace.record(
            self.now, KIND_PACKET_RECV, self.name,
            flow=flow_id, seq=seq, ttl=packet.ttl,
        )
        hop = self.rules.get(flow_id)
        if hop is None:
            self.network.trace.record(
                self.now, KIND_PACKET_LOST, self.name,
                flow=flow_id, seq=seq, reason="blackhole",
            )
            return
        if hop == LOCAL_DELIVER:
            self.network.trace.record(
                self.now, KIND_PACKET_DELIVERED, self.name,
                flow=flow_id, seq=seq,
            )
            return
        if packet.ttl <= 1:
            self.network.trace.record(
                self.now, KIND_PACKET_LOST, self.name,
                flow=flow_id, seq=seq, reason="ttl",
            )
            return
        packet.ttl -= 1
        port = self.network.port_towards(self.name, hop)
        self.send(port, packet)

    def _handle_gtm(self, gtm: GoodToMove) -> None:
        role = self.roles.get((gtm.flow_id, gtm.update_id, gtm.segment_index))
        if role is None:
            # Role message not here yet: park the GTM (local controller
            # buffers it; no verification of its validity).
            self._pending_gtm.append(gtm)
            return
        self._apply_role(role)

    def _replay_pending(self) -> None:
        pending, self._pending_gtm = self._pending_gtm, []
        for gtm in pending:
            self._handle_gtm(gtm)

    def _apply_role(self, role: RoleMessage, retries: int = 0) -> None:
        if self.flipped.get((role.flow_id, role.update_id)):
            # Already updated for this update (shared gateway): a GTM in
            # another segment just keeps the chain going.
            self._continue_chain(role)
            return
        # After many polls, relax the *static order* (ez-Segway's
        # deadlock-breaking third priority class) but never the
        # capacity check itself.
        ignore_ranks = retries >= self.static_order_patience
        if self.congestion_aware and not self._admit(role, ignore_ranks):
            if self.obs.enabled:
                self.obs.metrics.counter(
                    "scheduler_deferrals", node=self.name,
                ).inc()
            # One pending re-evaluation per switch, for all its entries.
            if not self._deferred:
                self.engine.schedule(self.params.resubmit_interval_ms, self._retry_deferred)
            self._deferred.append((role, retries + 1))
            return
        hop = role.new_next_hop if role.new_next_hop is not None else LOCAL_DELIVER
        if self.congestion_aware and hop != LOCAL_DELIVER and hop != self.rules.get(role.flow_id):
            # Reserve the new link at admission (atomic move): the old
            # link is released only once the flip completed.
            if self._in_transit.get(role.flow_id) != hop:
                size = self.flow_sizes.get(role.flow_id, role.flow_size)
                self.link_reserved[hop] = self.link_reserved.get(hop, 0.0) + size
                self._in_transit[role.flow_id] = hop
        if self.rules.get(role.flow_id) == hop:
            # No actual rule change: bookkeeping only.
            delay = self.params.pipeline_delay.sample(self.rng)
        else:
            delay = self.params.baseline_install_delay.sample(self.rng)
        self.engine.schedule(delay, self._complete_flip, role)

    def _retry_deferred(self) -> None:
        deferred, self._deferred = self._deferred, []
        for role, retries in deferred:
            self._apply_role(role, retries)

    def _admit(self, role: RoleMessage, ignore_ranks: bool = False) -> bool:
        """Static-priority capacity admission (§9.1 three-class scheme)."""
        hop = role.new_next_hop
        if hop is None:
            return True
        if self.rules.get(role.flow_id) == hop:
            return True
        capacity = self.link_capacity.get(hop, float("inf"))
        reserved = self.link_reserved.get(hop, 0.0)
        size = self.flow_sizes.get(role.flow_id, role.flow_size)
        if reserved + size > capacity + 1e-9:
            return False
        if ignore_ranks:
            return True
        # Respect the precomputed move order: every move with a smaller
        # rank destined to this link must already have happened.
        expected = self._expected_ranks.get(hop, [])
        done = self._moved_ranks.get(hop, set())
        for rank in expected:
            if rank >= role.move_rank:
                break
            if rank not in done:
                return False
        return True

    def _complete_flip(self, role: RoleMessage) -> None:
        if self.flipped.get((role.flow_id, role.update_id)):
            return
        hop = role.new_next_hop if role.new_next_hop is not None else LOCAL_DELIVER
        old_hop = self.rules.get(role.flow_id)
        if self.congestion_aware and hop != LOCAL_DELIVER and hop != old_hop:
            size = self.flow_sizes.get(role.flow_id, role.flow_size)
            # The new link was reserved at admission; now release old.
            if self._in_transit.pop(role.flow_id, None) is None:
                self.link_reserved[hop] = self.link_reserved.get(hop, 0.0) + size
            if old_hop and old_hop != LOCAL_DELIVER:
                self.link_reserved[old_hop] = self.link_reserved.get(old_hop, 0.0) - size
            self._moved_ranks.setdefault(hop, set()).add(role.move_rank)
        self.rules[role.flow_id] = hop
        self.flipped[(role.flow_id, role.update_id)] = True
        if self.forwarding_state is not None and hop != LOCAL_DELIVER:
            self.forwarding_state.set_rule(role.flow_id, self.name, hop)
        self.network.trace.record(
            self.now, KIND_RULE_CHANGE, self.name,
            flow=role.flow_id, next_hop=None if hop == LOCAL_DELIVER else hop,
        )
        if (
            old_hop is not None
            and old_hop not in (LOCAL_DELIVER, hop)
        ):
            port = self.network.port_towards(self.name, old_hop)
            self.send(port, CleanupMsg(flow_id=role.flow_id, update_id=role.update_id))
        self._after_flip(role)

    def _after_flip(self, role: RoleMessage) -> None:
        if role.is_segment_ingress:
            # Segment complete: report it to the controller.
            self.send_control(
                DoneNotification(
                    flow_id=role.flow_id, update_id=role.update_id,
                    segment_index=role.segment_index, reporter=self.name,
                )
            )
        self._continue_chain(role)
        # If this node is also the egress gateway of an in_loop segment
        # waiting on this flip, start that segment now.
        for key, other in self.roles.items():
            if key[0] != role.flow_id or key[1] != role.update_id:
                continue
            if other.is_segment_egress and other.depends_on_flip:
                self._drive_chain(other)

    def _continue_chain(self, role: RoleMessage) -> None:
        if role.upstream_in_segment is not None:
            self._drive_chain(role)


class EzSegwayController(UpdateController[FlowRecord]):
    """ez-Segway controller: pushes role messages, serializes updates.

    ``update_flow`` keeps ez-Segway's §4.2 queue (a second update of a
    flow waits for the first); ``prepare_update`` / ``push_update``
    send at once.
    """

    def __init__(
        self,
        name: str,
        topology: Topology,
        params: Optional[SimParams] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(name)
        self.topology = topology
        self.params = params if params is not None else SimParams()
        self.rng = rng if rng is not None else self.params.rng()
        self._update_ids = itertools.count(1)
        self.active_updates: dict[int, int] = {}      # flow -> update_id
        self._queued: dict[int, list] = {}            # serialized updates
        # (flow, update) -> number of segments expected / reported,
        # while the update is outstanding.
        self._expected_segments: dict[tuple[int, int], int] = {}
        self._done_segments: dict[tuple[int, int], set[int]] = {}

    # -- update pushing -------------------------------------------------------------

    def update_flow(
        self,
        flow_id: int,
        new_path: list[str],
        update_type: Any = None,
        *,
        move_ranks: Optional[dict] = None,
    ) -> Optional[EzPreparedUpdate]:
        """Prepare and push an update, or queue it (``None``) while one
        is ongoing: ez-Segway waits for it to finish (§4.2)."""
        if flow_id in self.active_updates:
            self._queued.setdefault(flow_id, []).append((new_path, move_ranks))
            return None
        prepared = self.prepare_update(flow_id, new_path, move_ranks=move_ranks)
        self.push_update(prepared)
        return prepared

    def prepare_update(
        self,
        flow_id: int,
        new_path: list[str],
        update_type: Any = None,
        move_ranks: Optional[dict] = None,
    ) -> EzPreparedUpdate:
        """Segments and roles of a fresh update from the path the
        controller believes deployed (``update_type`` is P4Update's
        knob; ez-Segway has one mechanism)."""
        record = self.flow_db[flow_id]
        prepared = prepare_ez_update(
            record.flow, record.pending_path or record.current_path,
            new_path, next(self._update_ids), move_ranks,
        )
        record.pending_path = list(new_path)
        record.pending_version = prepared.update_id
        return prepared

    def push_update(self, prepared: EzPreparedUpdate) -> None:
        flow_id, update_id = prepared.flow_id, prepared.update_id
        self.active_updates[flow_id] = update_id
        self.flow_db[flow_id].update_sent_at = self.now
        self._expected_segments[(flow_id, update_id)] = len(prepared.segments)
        self._done_segments[(flow_id, update_id)] = set()
        for role in prepared.roles:
            self.send_control(role)

    # -- feedback ----------------------------------------------------------------------

    def handle_control(self, message: Any) -> None:
        if not isinstance(message, DoneNotification):
            return
        key = (message.flow_id, message.update_id)
        expected = self._expected_segments.get(key)
        if expected is None:
            return                      # already complete
        done = self._done_segments[key]
        done.add(message.segment_index)
        if len(done) < expected:
            return
        del self._expected_segments[key], self._done_segments[key]
        if self.active_updates.get(message.flow_id) == message.update_id:
            del self.active_updates[message.flow_id]
            self._complete(
                self.flow_db[message.flow_id], message.update_id,
                update=message.update_id,
            )
            queue = self._queued.get(message.flow_id)
            if queue:
                new_path, move_ranks = queue.pop(0)
                self.update_flow(message.flow_id, new_path, move_ranks=move_ranks)
