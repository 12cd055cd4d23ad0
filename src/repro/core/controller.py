"""The P4Update control plane (paper §6, §8).

The controller keeps the Network Information Base (the topology) and
the Flow DB, computes the per-switch update/verification content
(distances, version, roles, ports) and pushes it as UIMs.  After the
trigger it only waits for UFMs — the whole coordination happens in the
data plane.

:meth:`P4UpdateController.prepare_update` is the function the Fig. 8
benchmark times: distance labeling plus (for dual-layer) the path
segmentation.  Unlike ez-Segway, no congestion dependency graph is
ever computed here — inter-flow dependencies are resolved by the §7.4
scheduler in the data plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

import numpy as np

from repro.core.contract import FlowRecord, UpdateController
from repro.core.labeling import VersionAllocator
from repro.core.messages import (
    FRM,
    UFM,
    UIM,
    ControlAck,
    PortStatus,
    TagFlip,
    UpdateType,
)
from repro.core.registers import LOCAL_DELIVER_PORT, VERSION_WIDTH_BITS
from repro.core.segmentation import old_distances
from repro.core.strategy import choose_update_type
from repro.loading import plain
from repro.params import SimParams
from repro.sim.trace import KIND_FLOW_PARKED, KIND_RETRIGGER, KIND_UPDATE_ABORTED
from repro.topo.graph import Topology
from repro.topo.paths import Adjacency, NoPathError, bidirectional_dijkstra
from repro.traffic.flows import Flow

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.chaos.reliable import ReliableControlSender


@dataclass
class P4FlowRecord(FlowRecord):
    """Flow DB entry with P4Update's own state: the installed version,
    alarms, and the §11 2-phase-commit and recovery fields."""

    version: int = 0
    alarms: list[UFM] = field(default_factory=list)
    # §11 2-phase-commit state.
    current_tag: int = 0
    staged_tag: Optional[int] = None
    # §11 failure recovery (repro.chaos): when a topology failure hit
    # the flow, the instant recovery started (for the recovery-latency
    # histogram).
    recovering_since: Optional[float] = None


@dataclass(frozen=True)
class ParkReport:
    """Structured report for a flow with no alternate path (§11).

    Emitted when recovery cannot reroute around a failure; the flow
    stays in the Flow DB and is retried when the topology heals."""

    flow_id: int
    time_ms: float
    reason: str
    src: str
    dst: str
    failed_edges: tuple[str, ...]

    def to_dict(self) -> dict:
        return plain(self)


@dataclass(frozen=True)
class PreparedUpdate:
    """Output of control-plane preparation for one flow update.

    ``old_path``/``new_path`` expose the plan's edge-level footprint
    (which links the flow leaves, enters or keeps) to static analysis
    — :mod:`repro.analysis.interference` builds capacity deltas and
    the merged forwarding relation from them.  They are empty only for
    hand-built updates that never went through :meth:`prepare_update`.
    """

    flow_id: int
    version: int
    update_type: UpdateType
    uims: tuple[UIM, ...]
    old_path: tuple[str, ...] = ()
    new_path: tuple[str, ...] = ()


class P4UpdateController(UpdateController[P4FlowRecord]):
    """Centralized controller node."""

    def __init__(
        self,
        name: str,
        topology: Topology,
        params: Optional[SimParams] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(name)
        self.topology = topology          # the NIB
        self.params = params if params is not None else SimParams()
        self.rng = rng if rng is not None else self.params.rng()
        # Version bits live in the data plane's 16-bit version
        # registers (Table 1); the allocator refuses to wrap them.
        self.versions = VersionAllocator(width_bits=VERSION_WIDTH_BITS)
        self.reported_flows: list[FRM] = []
        self.alarms: list[UFM] = []
        # §11 failure handling: the *pending* prepared update of each
        # flow, kept for re-triggering after a reported UNM loss, with a
        # retry budget.  Entries leave with their update (_forget).
        self._prepared: dict[tuple[int, int], PreparedUpdate] = {}
        self._retriggers: dict[tuple[int, int], int] = {}
        self.max_retriggers = 15
        # NIB port cache: (node, neighbor) -> port, filled lazily.
        self._port_cache: dict[tuple[str, str], int] = {}
        # §11 destination-tree updates (set by DestinationTreeManager).
        self.tree_manager = None
        # -- §11 failure recovery (repro.chaos) -------------------------
        # Edges the NIB currently believes are down (learned from
        # PortStatus reports or reliable-delivery escalation).
        self.failed_edges: set[frozenset[str]] = set()
        # Structured reports for flows recovery could not reroute.
        self.parked: list[ParkReport] = []
        # Failure-driven reroutes, counted with obs on or off (the
        # ``flow_reroutes`` metric counts the same sites).
        self.reroutes = 0
        # Reliable control sender, created lazily when
        # params.reliable_control is on.
        self.reliable: Optional["ReliableControlSender"] = None

    # -- flow DB -------------------------------------------------------------------

    def _new_record(self, flow: Flow, path: list[str]) -> P4FlowRecord:
        return P4FlowRecord(
            flow, path, version=self.versions.next_version(flow.flow_id)
        )

    # -- preparation (the Fig. 8 measured computation) ----------------------------------

    def prepare_update(
        self,
        flow_id: int,
        new_path: list[str],
        update_type: Optional[UpdateType] = None,
        congestion_aware: bool = True,
        stage_tag: Optional[int] = None,
    ) -> PreparedUpdate:
        """Compute the UIM set for rerouting ``flow_id`` to ``new_path``.

        One walk over P_n: a node's distance is its hop count to the
        egress, it is a gateway iff P_o labels it, and a gateway
        strictly inside P_n closes a segment (the first gateway is the
        shared ingress).  ``update_type=None`` applies the §7.5
        strategy to the same P_o labels.  ``congestion_aware`` is not
        read: the perf ledger's ``fig8_prep`` workload passes
        ``congestion_aware=False`` to this method by name.  Either way
        every UIM carries the flow size — the scheduling itself happens
        in the data plane.
        """
        record = self.flow_db[flow_id]
        old_path = record.current_path
        old_dist = None
        if update_type is None:
            old_dist = old_distances(old_path, new_path)
            update_type = choose_update_type(old_path, new_path, old_dist=old_dist)
        version = self.versions.next_version(flow_id)
        hops = len(new_path) - 1
        if hops < 1:
            raise ValueError("a path needs at least two nodes")
        if len(set(new_path)) <= hops:
            raise ValueError(f"path revisits a node: {new_path}")
        if update_type is not UpdateType.DUAL:
            old_dist = ()                 # SL carries no gateway roles
        elif old_dist is None:
            old_dist = old_distances(old_path, new_path)
        size = record.flow.size
        ports = self._port_cache
        uims = []
        child = None
        for i, node in enumerate(new_path):
            if i < hops:
                parent = new_path[i + 1]
                egress_port = ports.get((node, parent))
                if egress_port is None:
                    egress_port = self._port(node, parent)
            else:
                egress_port = LOCAL_DELIVER_PORT
            if child is None:
                child_port = None
            else:
                child_port = ports.get((node, child))
                if child_port is None:
                    child_port = self._port(node, child)
            is_gateway = node in old_dist
            uims.append(
                UIM(
                    node, flow_id, version, hops - i, egress_port, size,
                    update_type, child_port, (),
                    i == hops,                        # is_flow_egress
                    is_gateway and 0 < i < hops,      # is_segment_egress
                    i == 0,                           # is_ingress
                    is_gateway, stage_tag,
                )
            )
            child = node
        if record.pending_version is not None:
            self._forget(flow_id, record.pending_version)    # superseded
        record.pending_path = list(new_path)
        record.pending_version = version
        prepared = PreparedUpdate(
            flow_id, version, update_type, tuple(uims),
            tuple(old_path), tuple(new_path),
        )
        self._prepared[(flow_id, version)] = prepared
        return prepared

    def _port(self, node: str, neighbor: str) -> int:
        """NIB lookup behind a ``_port_cache`` miss."""
        if self.network is None:
            raise RuntimeError("controller not attached to a network")
        port = self.network.port_towards(node, neighbor)
        self._port_cache[(node, neighbor)] = port
        return port

    def _forget(self, flow_id: int, version: int) -> None:
        """Drop the re-trigger state of an update that completed, was
        superseded or was aborted: :meth:`_retrigger` only ever serves
        ``record.pending_version``, and versions are never reused."""
        self._prepared.pop((flow_id, version), None)
        self._retriggers.pop((flow_id, version), None)

    # -- triggering -------------------------------------------------------------------------

    def push_update(self, prepared: PreparedUpdate) -> None:
        """Send all UIMs of a prepared update into the data plane."""
        record = self.flow_db[prepared.flow_id]
        if self.params.verify_update_plans:
            self._verify_before_push(prepared, record)
        record.update_sent_at = self.now
        if self.obs.enabled:
            self.obs.metrics.family("counter", "uims_sent", "node")[(self.name,)].inc(
                len(prepared.uims)
            )
        for uim in prepared.uims:
            self._send_to_switch(uim)
        timeout = self.params.controller_update_timeout_ms
        if timeout > 0:
            self.engine.schedule(
                timeout, self._check_completion,
                prepared.flow_id, prepared.version,
            )

    def _verify_before_push(
        self, prepared: PreparedUpdate, record: P4FlowRecord
    ) -> None:
        """Static plan gate (``SimParams.verify_update_plans``).

        Destination-tree pushes (``child_ports``) have no linear plan
        model and pass through unchecked.  On rejection the pending
        Flow-DB state is rolled back so the flow can be re-prepared.
        """
        if any(uim.child_ports for uim in prepared.uims):
            return
        from repro.analysis.plan import (
            PlanVerificationError,
            plan_from_prepared,
            verify_plan,
        )

        prior = record.version
        plan = plan_from_prepared(prepared, prior_version=prior)
        report = verify_plan(plan)
        if report.ok:
            self.obs.count("plans_verified", node=self.name)
            return
        if record.pending_version == prepared.version:
            record.pending_path = None
            record.pending_version = None
        self._forget(prepared.flow_id, prepared.version)
        self.obs.count("plans_rejected", node=self.name)
        raise PlanVerificationError(report.describe())

    def _check_completion(self, flow_id: int, version: int) -> None:
        """§11 controller-side watchdog: the update produced no UFM in
        time — re-trigger and keep watching."""
        record = self.flow_db.get(flow_id)
        if record is None or record.pending_version != version:
            return  # completed or superseded
        self._retrigger(flow_id, version)
        if self._retriggers.get((flow_id, version), 0) < self.max_retriggers:
            self.engine.schedule(
                self.params.controller_update_timeout_ms,
                self._check_completion, flow_id, version,
            )

    def compact_update(
        self,
        flow_id: int,
        new_path: list[str],
        update_type: Optional[UpdateType] = None,
    ) -> PreparedUpdate:
        """§11 "Reducing the Number of Control Plane Messages".

        Sends UIMs only to the switches that may immediately notify
        their children — the flow egress and, for DL, each segment
        egress gateway ("e.g., only to v7, v4, v2 in Fig. 1").  Each
        such UIM piggybacks the UIMs of its segment's upstream nodes,
        which travel on the UNM as a header stack and are popped hop by
        hop.  Parallelism per segment is retained.
        """
        prepared = self.prepare_update(flow_id, new_path, update_type)
        by_target = {uim.target: uim for uim in prepared.uims}
        order = list(new_path)

        # Collect originators: flow egress (always) + segment egresses.
        originators = [
            uim for uim in prepared.uims
            if uim.is_flow_egress or uim.is_segment_egress
        ]
        # Upstream nodes between originators, in notification order.
        originator_names = {uim.target for uim in originators}
        compact_uims = []
        for originator in originators:
            start = order.index(originator.target)
            stack = []
            for node in reversed(order[:start]):
                if node in originator_names:
                    break            # that node has its own control UIM
                stack.append(by_target[node])
            compact_uims.append(originator._replace(piggyback=tuple(stack)))
        compact = PreparedUpdate(
            flow_id=prepared.flow_id,
            version=prepared.version,
            update_type=prepared.update_type,
            uims=tuple(compact_uims),
            old_path=prepared.old_path,
            new_path=prepared.new_path,
        )
        self._prepared[(prepared.flow_id, prepared.version)] = compact
        self.push_update(compact)
        return compact

    def two_phase_update(self, flow_id: int, new_path: list[str]) -> PreparedUpdate:
        """§11 2PC integration: stage the new rules under the inactive
        packet tag via an SL update; once the chain confirms every rule
        is in place, flip the ingress tag — per-packet consistency.
        """
        record = self.flow_db[flow_id]
        stage_tag = 1 - record.current_tag
        prepared = self.prepare_update(
            flow_id, new_path, UpdateType.SINGLE, stage_tag=stage_tag
        )
        record.staged_tag = stage_tag
        self.push_update(prepared)
        return prepared

    # -- reliable control delivery (repro.chaos) ---------------------------

    def _send_to_switch(self, message: Any) -> None:
        """Send a switch-bound message, reliably when configured.

        With ``params.reliable_control`` off this is a plain
        ``send_control`` — byte-identical to the pre-chaos behavior."""
        if not self.params.reliable_control:
            self.send_control(message)
            return
        if self.reliable is None:
            from repro.chaos.reliable import ReliableControlSender

            self.reliable = ReliableControlSender(
                self,
                np.random.default_rng([self.params.seed, 0xC7A05]),
                timeout_ms=self.params.control_retry_timeout_ms,
                backoff=self.params.control_retry_backoff,
                jitter_ms=self.params.control_retry_jitter_ms,
                max_retries=self.params.control_max_retries,
                on_exhausted=self._on_control_exhausted,
            )
        self.reliable.send(message)

    def _on_control_exhausted(self, message: Any) -> None:
        """The retry budget for a switch ran out: escalate.

        The target switch is treated as unreachable — every edge at it
        is marked failed in the NIB and affected flows are recovered
        around it (or parked)."""
        target = getattr(message, "target", None)
        if target is None:
            return
        self.obs.count("control_escalations", node=self.name, target=target)
        if self.reliable is not None:
            self.reliable.cancel_target(target)
        new_edges = []
        for neighbor in self.topology.neighbors(target):
            edge = frozenset((target, neighbor))
            if edge not in self.failed_edges:
                self.failed_edges.add(edge)
                new_edges.append(edge)
        for edge in new_edges:
            self._recover_after_failure(edge)

    # -- §11 failure recovery (repro.chaos) --------------------------------

    def _handle_port_status(self, status: PortStatus) -> None:
        """NIB update from a switch's port-down/up report.

        Both endpoints of a failed link report; the first report per
        edge triggers recovery, the rest deduplicate."""
        edge = frozenset((status.reporter, status.peer))
        if not status.up:
            if edge in self.failed_edges:
                return
            self.failed_edges.add(edge)
            self.obs.count("nib_updates", node=self.name, kind="port_down")
            self._recover_after_failure(edge)
        else:
            if edge not in self.failed_edges:
                return
            self.failed_edges.discard(edge)
            self.obs.count("nib_updates", node=self.name, kind="port_up")
            self._retry_parked()

    def _working_graph(self) -> Adjacency:
        """The NIB topology minus every edge believed down.

        Rebuilt in the order a networkx ``Graph.copy()`` re-adds it
        (every node, then each ``(u, v)`` of ``adj[u]`` in order), not
        filtered from the original: re-adding reorders neighbours, the
        search breaks latency ties in neighbour order, and the reroutes
        every pinned signature records were chosen on that order.
        """
        graph: Adjacency = {node: {} for node in self.topology.adj}
        for u, peers in self.topology.adj.items():
            for v, data in peers.items():
                graph[u][v] = graph[v][u] = data
        for edge in self.failed_edges:
            a, b = sorted(edge)
            if b in graph.get(a, ()):
                del graph[a][b]
                del graph[b][a]
        return graph

    @staticmethod
    def _path_uses(path: list[str], edge: frozenset) -> bool:
        return any(frozenset(pair) == edge for pair in zip(path, path[1:]))

    def _recover_after_failure(self, edge: frozenset) -> None:
        """Recover every flow whose current or pending path uses ``edge``."""
        for flow_id in sorted(self.flow_db):
            record = self.flow_db[flow_id]
            pending_hit = record.pending_path is not None and self._path_uses(
                record.pending_path, edge
            )
            if not pending_hit and not self._path_uses(record.current_path, edge):
                continue
            self._reroute_flow(record)

    def _reroute_flow(self, record: P4FlowRecord) -> None:
        """Abort, recompute around the failure, re-issue — or park.

        The abort reuses the plan-gate rollback path: pending Flow-DB
        state is cleared and the prepared update dropped, so the flow
        can be re-prepared under a fresh version."""
        flow_id = record.flow.flow_id
        if record.recovering_since is None:
            record.recovering_since = self.now
        if record.pending_version is not None:
            self._forget(flow_id, record.pending_version)
            aborted_version = record.pending_version
            record.pending_path = None
            record.pending_version = None
            record.staged_tag = None
            if self.network is not None:
                self.network.trace.record(
                    self.now, KIND_UPDATE_ABORTED, self.name,
                    flow=flow_id, version=aborted_version,
                )
            self._notify("aborted", flow_id, aborted_version)
        src = record.current_path[0]
        dst = record.current_path[-1]
        graph = self._working_graph()
        try:
            _, new_path = bidirectional_dijkstra(graph, src, dst)
        except NoPathError:
            self._park_flow(record, "no alternate path")
            return
        record.parked = False
        if list(new_path) == list(record.current_path):
            # The live path already avoids the failure: aborting the
            # pending update was all the recovery needed.
            record.recovering_since = None
            return
        self.reroutes += 1
        self.obs.count("flow_reroutes", node=self.name)
        prepared = self.prepare_update(flow_id, list(new_path))
        self.push_update(prepared)
        self._notify("reissued", flow_id, prepared.version)

    def _park_flow(self, record: P4FlowRecord, reason: str) -> None:
        flow_id = record.flow.flow_id
        report = ParkReport(
            flow_id=flow_id,
            time_ms=self.now,
            reason=reason,
            src=record.current_path[0],
            dst=record.current_path[-1],
            failed_edges=tuple(
                sorted("|".join(sorted(edge)) for edge in self.failed_edges)
            ),
        )
        self.parked.append(report)
        record.parked = True
        if self.network is not None:
            self.network.trace.record(
                self.now, KIND_FLOW_PARKED, self.name,
                flow=flow_id, reason=reason,
            )
        self._notify("parked", flow_id, None)

    def _retry_parked(self) -> None:
        """The topology healed (a port came back): retry parked flows."""
        for flow_id in sorted(self.flow_db):
            record = self.flow_db[flow_id]
            if record.parked:
                self._reroute_flow(record)

    # -- feedback ----------------------------------------------------------------------------

    def handle_control(self, message: Any) -> None:
        if isinstance(message, FRM):
            self.reported_flows.append(message)
        elif isinstance(message, UFM):
            self._handle_ufm(message)
        elif isinstance(message, PortStatus):
            self._handle_port_status(message)
        elif isinstance(message, ControlAck):
            if self.reliable is not None:
                self.reliable.ack(message.seq)

    def _handle_ufm(self, ufm: UFM) -> None:
        if (
            self.tree_manager is not None
            and ufm.status == "success"
            and self.tree_manager.handle_ufm(ufm)
        ):
            return
        record = self.flow_db.get(ufm.flow_id)
        if ufm.status == "alarm":
            self.alarms.append(ufm)
            self.obs.count(
                "controller_alarms", node=self.name,
                reason=ufm.reason or "unspecified",
            )
            if record is not None:
                record.alarms.append(ufm)
            if ufm.reason == "unm_timeout":
                self._retrigger(ufm.flow_id, ufm.version)
            return
        if record is None:
            return
        if ufm.version == record.pending_version:
            if record.staged_tag is not None and ufm.reason != "tag_flipped":
                # 2PC phase 1 complete: every new-tag rule is staged —
                # tell the ingress to start stamping the new tag.
                ingress = (record.pending_path or record.current_path)[0]
                self._send_to_switch(
                    TagFlip(
                        target=ingress,
                        flow_id=ufm.flow_id,
                        version=ufm.version,
                        tag=record.staged_tag,
                        new_path=tuple(record.pending_path or ()),
                    )
                )
                return
            if record.staged_tag is not None:
                record.current_tag = record.staged_tag
                record.staged_tag = None
            record.version = ufm.version
            self._forget(ufm.flow_id, ufm.version)
            if record.recovering_since is not None:
                # §11 recovery: this completion closed a failure-driven
                # reroute — record how long the flow was degraded.
                self.obs.count("flow_recoveries", node=self.name)
                self.obs.observe(
                    "recovery_latency_ms", self.now - record.recovering_since,
                    node=self.name,
                )
                record.recovering_since = None
            if self.obs.enabled:
                self.obs.metrics.family("counter", "updates_completed", "node")[(self.name,)].inc()
                if record.update_sent_at is not None:
                    self.obs.metrics.family("histogram", "update_duration_ms", "node")[
                        (self.name,)
                    ].observe(self.now - record.update_sent_at)
            self._complete(record, ufm.version, version=ufm.version)

    def _retrigger(self, flow_id: int, version: int) -> None:
        """§11: resend the UIM to the node(s) that regenerate UNMs —
        the flow egress for SL, the segment egresses for DL — so the
        notification chain restarts from there."""
        record = self.flow_db.get(flow_id)
        if record is None or record.pending_version != version:
            return  # stale alarm
        prepared = self._prepared.get((flow_id, version))
        if prepared is None:
            return
        key = (flow_id, version)
        if self._retriggers.get(key, 0) >= self.max_retriggers:
            return
        self._retriggers[key] = self._retriggers.get(key, 0) + 1
        self.network.trace.record(
            self.now, KIND_RETRIGGER, self.name, flow=flow_id, version=version
        )
        for uim in prepared.uims:
            if uim.is_flow_egress or uim.is_segment_egress:
                self._send_to_switch(uim)
