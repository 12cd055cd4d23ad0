"""Central baseline — dependency-graph updates driven in rounds (§9.1).

The controller greedily computes, each round, a maximal *jointly safe*
set of node updates (flipping all of them together keeps every flow
loop-, blackhole- and, when enabled, congestion-free), sends the
commands, and waits for every acknowledgement before computing the
next round.  Every acknowledgement passes through the single-threaded
controller service queue, which is where the paper's "queuing delay
and processing delay" ([40]) bites.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.baselines.contract import ContractController
from repro.consistency.state import ForwardingState
from repro.params import SimParams
from repro.sim.node import Node
from repro.sim.trace import KIND_RULE_CHANGE, KIND_UPDATE_DONE
from repro.topo.graph import Topology
from repro.traffic.flows import Flow

LOCAL_DELIVER = "__local__"


@dataclass(frozen=True)
class RuleCommand:
    """Controller -> switch: install one forwarding rule."""

    target: str
    flow_id: int
    round_id: int
    next_hop: Optional[str]
    flow_size: float

    def describe(self) -> str:
        return f"Rule(to={self.target} flow={self.flow_id} r={self.round_id})"


@dataclass(frozen=True)
class RuleAck:
    """Switch -> controller: the rule is installed."""

    reporter: str
    flow_id: int
    round_id: int

    def describe(self) -> str:
        return f"Ack(from={self.reporter} flow={self.flow_id} r={self.round_id})"


class CentralSwitch(Node):
    """Dumb OpenFlow-style switch: installs commands, acks back."""

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
        self.rules: dict[int, str] = {}

    def install_initial(self, flow_id: int, next_hop: Optional[str]) -> None:
        hop = next_hop if next_hop is not None else LOCAL_DELIVER
        self.rules[flow_id] = hop
        if self.forwarding_state is not None and hop != LOCAL_DELIVER:
            self.forwarding_state.set_rule(flow_id, self.name, hop)

    def handle_control(self, message: Any, sender: str) -> None:
        if not isinstance(message, RuleCommand):
            return
        delay = self.params.baseline_install_delay.sample(self.rng)
        self.engine.schedule(delay, self._complete_install, message)

    def _complete_install(self, command: RuleCommand) -> None:
        hop = command.next_hop if command.next_hop is not None else LOCAL_DELIVER
        self.rules[command.flow_id] = hop
        if self.forwarding_state is not None and hop != LOCAL_DELIVER:
            self.forwarding_state.set_rule(command.flow_id, self.name, hop)
        self.network.trace.record(
            self.now, KIND_RULE_CHANGE, self.name,
            flow=command.flow_id, next_hop=None if hop == LOCAL_DELIVER else hop,
        )
        self.send_control(
            RuleAck(reporter=self.name, flow_id=command.flow_id, round_id=command.round_id)
        )


@dataclass(frozen=True)
class CentralPreparedUpdate:
    flow_id: int
    #: The update contract's handle: a per-controller counter from 1.
    version: int
    new_path: tuple[str, ...]


@dataclass
class _PendingFlowUpdate:
    flow: Flow
    old_path: list[str]
    new_path: list[str]
    # node -> new next hop, still to be deployed.
    remaining: dict[str, Optional[str]]


class CentralController(ContractController):
    """Round-based centralized update scheduler."""

    def __init__(
        self,
        name: str,
        topology: Topology,
        params: Optional[SimParams] = None,
        rng: Optional[np.random.Generator] = None,
        congestion_aware: bool = False,
    ) -> None:
        super().__init__(name)
        self.topology = topology
        self.params = params if params is not None else SimParams()
        self.rng = rng if rng is not None else self.params.rng()
        self.congestion_aware = congestion_aware
        self._round_ids = itertools.count(1)
        self._versions = itertools.count(1)
        # The controller's model of the deployed state.
        self.deployed: dict[int, dict[str, str]] = {}     # flow -> node -> hop
        self.flow_endpoints: dict[int, tuple[str, str]] = {}
        self.pending: dict[int, _PendingFlowUpdate] = {}
        self.update_sent_at: dict[int, float] = {}
        self.update_done_at: dict[int, float] = {}
        self.rounds_executed = 0
        self._outstanding_acks: set[tuple[str, int]] = set()
        self._current_round: Optional[int] = None

    # -- bootstrap -------------------------------------------------------------

    def register_flow(self, flow: Flow) -> None:
        if flow.old_path is None:
            raise ValueError("flow needs an initial path")
        self._track(flow)
        path = flow.old_path
        hops = {a: b for a, b in zip(path, path[1:])}
        hops[path[-1]] = LOCAL_DELIVER
        self.deployed[flow.flow_id] = hops
        self.flow_endpoints[flow.flow_id] = (path[0], path[-1])

    # -- update entry point --------------------------------------------------------

    def update_flow(self, flow_id: int, new_path: list[str]) -> None:
        self.push_update(self.prepare_update(flow_id, new_path))

    def prepare_update(
        self, flow_id: int, new_path: list[str], update_type: Any = None
    ) -> CentralPreparedUpdate:
        """Version the update (``update_type`` is P4Update's knob); the
        rounds are planned as it is pushed."""
        version = next(self._versions)
        self._pend(flow_id, version, new_path)
        return CentralPreparedUpdate(flow_id, version, tuple(new_path))

    def push_update(self, prepared: CentralPreparedUpdate) -> None:
        flow_id, new_path = prepared.flow_id, list(prepared.new_path)
        flow = self.flow_db[flow_id].flow
        old_hops = self.deployed[flow_id]
        new_hops: dict[str, Optional[str]] = {
            a: b for a, b in zip(new_path, new_path[1:])
        }
        new_hops[new_path[-1]] = None
        remaining = {
            node: hop
            for node, hop in new_hops.items()
            if old_hops.get(node) != (hop if hop is not None else LOCAL_DELIVER)
        }
        self.pending[flow_id] = _PendingFlowUpdate(
            flow=flow,
            old_path=list(flow.old_path or []),
            new_path=list(new_path),
            remaining=remaining,
        )
        self.update_sent_at[flow_id] = self.now
        if self._current_round is None:
            self._start_round()

    # -- round computation -------------------------------------------------------------

    def _walk(self, flow_id: int, hops: dict[str, str]) -> Optional[list[str]]:
        """Ingress-to-egress walk under ``hops``; None on loop/blackhole."""
        ingress, egress = self.flow_endpoints[flow_id]
        node = ingress
        seen = {node}
        path = [node]
        for _ in range(len(hops) + 2):
            if node == egress:
                return path
            nxt = hops.get(node)
            if nxt is None or nxt == LOCAL_DELIVER:
                return None                 # blackhole
            if nxt in seen:
                return None                 # loop
            seen.add(nxt)
            path.append(nxt)
            node = nxt
        return None                         # did not terminate

    def _capacity_ok(self, mover_walks: dict[int, list[list[str]]]) -> bool:
        """Conservative transient capacity check for one round.

        Because flips within a round complete asynchronously, a moving
        flow is charged on the union of the edges of its confirmed walk
        and every candidate walk of this round; non-movers are charged
        on their confirmed walk.
        """
        load: dict[tuple[str, str], float] = {}
        for flow_id in self.deployed:
            size = self.flow_db[flow_id].flow.size
            edges: set[tuple[str, str]] = set()
            confirmed = self._walk(flow_id, self.deployed[flow_id])
            if confirmed is not None:
                edges.update(zip(confirmed, confirmed[1:]))
            for walk in mover_walks.get(flow_id, []):
                edges.update(zip(walk, walk[1:]))
            for edge in edges:
                load[edge] = load.get(edge, 0.0) + size
        for (a, b), used in load.items():
            if used > self.topology.capacity(a, b) + 1e-9:
                return False
        return True

    def _start_round(self) -> None:
        """Pick a set of flips that is safe under *any* interleaving.

        Dionysus-style rules:
        * rule **additions** (the node has no rule for the flow, hence
          carries none of its traffic) are always safe and go out
          immediately;
        * rule **modifications** are evaluated against the confirmed
          state only: the flow's walk with just this flip applied must
          be loop- and blackhole-free, and two chosen modifications of
          the same flow must not appear in each other's downstream
          walk (otherwise their relative completion order could yield
          an unverified path);
        * with congestion awareness, movers are charged on the union
          of their old and candidate walks (atomic-move semantics).
        """
        additions: list[tuple[int, str, Optional[str]]] = []
        mod_candidates: list[tuple[int, int, str, Optional[str]]] = []
        for flow_id, pending in self.pending.items():
            new_dist = {
                node: len(pending.new_path) - 1 - i
                for i, node in enumerate(pending.new_path)
            }
            for node, hop in pending.remaining.items():
                if node not in self.deployed[flow_id]:
                    additions.append((flow_id, node, hop))
                else:
                    mod_candidates.append((new_dist.get(node, 0), flow_id, node, hop))
        # Egress-close flips first maximize parallelism.
        mod_candidates.sort(key=lambda c: (c[0], c[1], c[2]))

        chosen_mods: list[tuple[int, str, Optional[str]]] = []
        downstream_of: dict[tuple[int, str], set[str]] = {}
        mover_walks: dict[int, list[list[str]]] = {}
        for _dist, flow_id, node, hop in mod_candidates:
            hypothetical = dict(self.deployed[flow_id])
            hypothetical[node] = hop if hop is not None else LOCAL_DELIVER
            walk = self._walk(flow_id, hypothetical)
            if walk is None:
                continue
            if node in walk:
                downstream = set(walk[walk.index(node) + 1 :])
            else:
                downstream = set()
            conflict = False
            for other_flow, other_node, _ in chosen_mods:
                if other_flow != flow_id:
                    continue
                if other_node in downstream or node in downstream_of[(other_flow, other_node)]:
                    conflict = True
                    break
            if conflict:
                continue
            if self.congestion_aware:
                trial = {
                    fid: list(walks) for fid, walks in mover_walks.items()
                }
                trial.setdefault(flow_id, []).append(walk)
                if not self._capacity_ok(trial):
                    continue
                mover_walks = trial
            chosen_mods.append((flow_id, node, hop))
            downstream_of[(flow_id, node)] = downstream

        chosen = additions + chosen_mods
        if not chosen:
            # Nothing safe right now — a dependency deadlock for the
            # greedy heuristic; give up (reported by the harness).
            self._current_round = None
            return

        round_id = next(self._round_ids)
        self._current_round = round_id
        self.rounds_executed += 1
        if self.obs.enabled:
            self.obs.metrics.counter("central_rounds", node=self.name).inc()
            self.obs.metrics.histogram(
                "central_round_size", node=self.name,
            ).observe(len(chosen))
        for flow_id, node, hop in chosen:
            self._outstanding_acks.add((node, flow_id))
            self.pending[flow_id].remaining.pop(node, None)
            self.deployed[flow_id][node] = hop if hop is not None else LOCAL_DELIVER
            self.send_control(
                RuleCommand(
                    target=node, flow_id=flow_id, round_id=round_id,
                    next_hop=hop, flow_size=self.flow_db[flow_id].flow.size,
                )
            )

    # -- acks ---------------------------------------------------------------------------

    def handle_control(self, message: Any, sender: str) -> None:
        if not isinstance(message, RuleAck):
            return
        self._outstanding_acks.discard((message.reporter, message.flow_id))
        if self._outstanding_acks:
            return
        # Round complete: close out finished flows, then next round.
        finished = [
            flow_id for flow_id, pending in self.pending.items()
            if not pending.remaining
        ]
        for flow_id in finished:
            del self.pending[flow_id]
            self.update_done_at[flow_id] = self.now
            self.network.trace.record(
                self.now, KIND_UPDATE_DONE, self.name, flow=flow_id,
            )
            self._complete(flow_id, self.flow_db[flow_id].pending_version)
        self._current_round = None
        if self.pending:
            self._start_round()

    # -- queries -------------------------------------------------------------------------

    def update_complete(self, flow_id: int) -> bool:
        return flow_id not in self.pending and flow_id in self.update_done_at

    def all_updates_complete(self) -> bool:
        return not self.pending

    def update_duration(self, flow_id: int) -> Optional[float]:
        sent = self.update_sent_at.get(flow_id)
        done = self.update_done_at.get(flow_id)
        if sent is None or done is None:
            return None
        return done - sent
