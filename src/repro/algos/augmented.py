"""Augmentation-enabled updates (capacity-augmented P4Update).

The Henzinger/Pourdamghani augmentation-speed tradeoff: spare link
capacity can unlock update orders that are deadlocked under
capacity-preserving scheduling.  Two flows that each need the link the
other occupies (the classic swap) defer forever under the §7.4
data-plane scheduler; if a third corridor has slack, detouring one
flow over it first breaks the cycle.

The ``augmented`` row wraps the stock P4Update deployment with a
controller facade that turns one orchestrator-visible update into up
to two inner updates:

1. At :meth:`prepare_update`, the facade computes each directed edge's
   residual capacity from the controller's flow DB (every other flow
   charged on its current *and* pending path — the worst mid-update
   instant, the same load model as
   :meth:`repro.analysis.interference.PlanFootprint.capacity_deltas`).
   If every new edge of the target has residual for the flow, the
   update passes through unchanged.
2. Otherwise it searches a deterministic latency-shortest **helper
   path** whose new edges all have residual, avoiding the flow's own
   contended edges (current edges some other flow's pending update
   wants — those are exactly the edges to vacate).  The helper update
   is prepared and returned; when it completes, the facade immediately
   prepares and pushes the second hop (helper → target) and only
   reports completion to its own listeners when the target lands.

The orchestrator sees one request with the stage-1 version; both inner
updates run the full P4Update install/verify machinery, so the live
checker and the static plan verifier hold with no changes.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional

from repro.algos.base import _Delegating
from repro.analysis.interference import path_edges
from repro.core.contract import Notifier
from repro.core.controller import P4UpdateController, PreparedUpdate
from repro.core.messages import UpdateType
from repro.harness.build import Deployment
from repro.topo.graph import Topology

_EPS = 1e-9


class AugmentedController(_Delegating, Notifier):
    """Controller facade staging helper-path detours."""

    def __init__(self, inner: P4UpdateController, topology: Topology) -> None:
        self._inner = inner
        self._topology = topology
        # The facade's own listener surface: the orchestrator must not
        # observe the intermediate helper completion.
        self.update_listeners = []
        # flow_id -> (target path, stage-1 version, forced layer)
        # [helper in flight]
        self._stage1: dict[
            int, tuple[tuple[str, ...], int, Optional[UpdateType]]
        ] = {}
        # flow_id -> (stage-1 version, stage-2 version)  [target in flight]
        self._stage2: dict[int, tuple[int, int]] = {}
        self._stats = {
            "augmented_detours": 0,
            "augmentation_unavailable": 0,
            "pass_through": 0,
        }
        inner.update_listeners.append(self._on_inner_event)

    # -- capacity model ------------------------------------------------------

    def _residuals(self, flow_id: int) -> dict[tuple[str, str], float]:
        """Directed residual capacity with every flow but ``flow_id``
        charged on its current and pending edges (worst instant)."""
        load: dict[tuple[str, str], float] = {}
        for other_id, record in self._inner.flow_db.items():
            if other_id == flow_id:
                continue
            size = record.flow.size
            edges = set(path_edges(record.current_path))
            if record.pending_path:
                edges.update(path_edges(record.pending_path))
            for edge in edges:
                load[edge] = load.get(edge, 0.0) + size
        residuals: dict[tuple[str, str], float] = {}
        for edge in self._topology.edges:
            a, b, cap = edge.a, edge.b, float(edge.capacity)
            residuals[(a, b)] = cap - load.get((a, b), 0.0)
            residuals[(b, a)] = cap - load.get((b, a), 0.0)
        return residuals

    def _contended_edges(self, flow_id: int) -> set[tuple[str, str]]:
        """Current edges of ``flow_id`` that some other flow's pending
        update wants — the edges a helper detour should vacate."""
        record = self._inner.flow_db[flow_id]
        current = set(path_edges(record.current_path))
        wanted: set[tuple[str, str]] = set()
        for other_id, other in self._inner.flow_db.items():
            if other_id == flow_id or not other.pending_path:
                continue
            wanted.update(path_edges(other.pending_path))
        return current & wanted

    def _helper_path(
        self,
        src: str,
        dst: str,
        size: float,
        current_edges: set[tuple[str, str]],
        residuals: dict[tuple[str, str], float],
        forbidden: set[tuple[str, str]],
    ) -> Optional[tuple[str, ...]]:
        """Deterministic latency-shortest path whose every edge either
        already carries the flow or has residual >= size, skipping
        ``forbidden`` edges entirely."""
        adj = self._topology.adj
        dist: dict[str, float] = {src: 0.0}
        prev: dict[str, str] = {}
        heap: list[tuple[float, str]] = [(0.0, src)]
        while heap:
            d, node = heapq.heappop(heap)
            if d > dist.get(node, float("inf")) + _EPS:
                continue
            if node == dst:
                break
            for neighbor in sorted(adj[node]):
                edge = (node, neighbor)
                if edge in forbidden:
                    continue
                if edge not in current_edges and (
                    residuals.get(edge, 0.0) < size - _EPS
                ):
                    continue
                candidate = d + float(adj[node][neighbor]["latency_ms"])
                if candidate < dist.get(neighbor, float("inf")) - _EPS:
                    dist[neighbor] = candidate
                    prev[neighbor] = node
                    heapq.heappush(heap, (candidate, neighbor))
        if dst not in dist:
            return None
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return tuple(path)

    # -- prepare/push --------------------------------------------------------

    def prepare_update(
        self,
        flow_id: int,
        new_path: list[str],
        update_type: Optional[UpdateType] = None,
        **kwargs: Any,
    ) -> PreparedUpdate:
        record = self._inner.flow_db[flow_id]
        size = record.flow.size
        target = tuple(new_path)
        current_edges = set(path_edges(record.current_path))
        residuals = self._residuals(flow_id)
        tight = [
            edge
            for edge in sorted(set(path_edges(target)) - current_edges)
            if residuals.get(edge, 0.0) < size - _EPS
        ]
        if not tight:
            self._stats["pass_through"] += 1
            return self._inner.prepare_update(
                flow_id, list(new_path), update_type, **kwargs
            )
        contended = self._contended_edges(flow_id)
        helper = self._helper_path(
            target[0], target[-1], size, current_edges,
            residuals, set(tight) | contended,
        )
        if (
            helper is None
            or helper == tuple(record.current_path)
            or helper == target
        ):
            # No usable slack: behave exactly like stock P4Update (the
            # data-plane scheduler defers; an unresolvable order ends
            # unfinished, same as the baselines).
            self._stats["augmentation_unavailable"] += 1
            return self._inner.prepare_update(
                flow_id, list(new_path), update_type, **kwargs
            )
        prepared = self._inner.prepare_update(
            flow_id, list(helper), update_type, **kwargs
        )
        self._stage1[flow_id] = (target, prepared.version, update_type)
        self._stats["augmented_detours"] += 1
        return prepared

    # push_update, flow_db, control_* all delegate to the inner controller.

    # -- inner lifecycle bridge ----------------------------------------------

    def _on_inner_event(
        self, event: str, flow_id: int, version: Optional[int]
    ) -> None:
        stage1 = self._stage1.get(flow_id)
        stage2 = self._stage2.get(flow_id)
        if event == "completed":
            if stage1 is not None and version == stage1[1]:
                # Helper landed (the inner controller has already moved
                # current_path to the helper and cleared the pending
                # slot) — immediately chain the second hop.
                target, v1, update_type = self._stage1.pop(flow_id)
                chained = self._inner.prepare_update(
                    flow_id, list(target), update_type
                )
                self._stage2[flow_id] = (v1, chained.version)
                self._inner.push_update(chained)
                return
            if stage2 is not None and version == stage2[1]:
                v1, _v2 = self._stage2.pop(flow_id)
                self._notify("completed", flow_id, v1)
                return
        elif event == "aborted":
            if stage1 is not None and version == stage1[1]:
                _target, v1, _layer = self._stage1.pop(flow_id)
                self._notify("aborted", flow_id, v1)
                return
            if stage2 is not None and version == stage2[1]:
                v1, _v2 = self._stage2.pop(flow_id)
                self._notify("aborted", flow_id, v1)
                return
        elif event == "parked":
            # Recovery parked the flow mid-stage: drop the staging
            # state; the orchestrator resolves the request off the
            # park notification itself.
            self._stage1.pop(flow_id, None)
            self._stage2.pop(flow_id, None)
        self._notify(event, flow_id, version)

    # -- stats ---------------------------------------------------------------

    def strategy_stats(self) -> dict[str, int]:
        return {k: v for k, v in sorted(self._stats.items()) if v}


def augment(deployment: Deployment) -> Deployment:
    """The ``augmented`` row's wrapper: stage detours in front of the
    deployment's P4Update controller."""
    deployment.controller = AugmentedController(
        deployment.controller, deployment.topology
    )
    return deployment
