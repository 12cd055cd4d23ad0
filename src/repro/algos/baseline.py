"""ez-Segway and Central adapters for the strategy contract.

The baseline controllers speak ``update_flow`` and report completion
through trace events, not the prepare/push/listener surface the
:class:`~repro.serve.orchestrator.ServiceOrchestrator` drives.  The
facade controller here bridges the two:

* :meth:`prepare_update` allocates a facade version and marks the
  flow's record pending (the orchestrator's same-flow serialization
  keys off ``pending_version``);
* :meth:`push_update` hands the target path to the wrapped controller;
* a trace subscription on ``KIND_UPDATE_DONE`` maps the baseline's
  completion back to the facade version and fires the orchestrator's
  ``("completed", flow_id, version)`` listeners.

Deadlocks need no special plumbing: an ez-Segway capacity deferral
retries forever and a stuck Central round silently gives up, so the
flow's record keeps its pending version, the orchestrator never
re-dispatches the flow, and the request ends ``unfinished`` at the
horizon — exactly the deadlock/park signal the compete scoreboard
reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.algos.base import _Delegating
from repro.harness.baselines_build import (
    build_central_network,
    build_ezsegway_network,
)
from repro.harness.build import Deployment
from repro.obs.context import ObsContext
from repro.params import SimParams
from repro.sim.trace import KIND_UPDATE_DONE, TraceEvent
from repro.topo.graph import Topology
from repro.traffic.flows import Flow


@dataclass
class _FacadeRecord:
    """Mirror of the P4Update ``FlowRecord`` fields the serve layer reads."""

    flow: Flow
    current_path: list[str]
    pending_version: Optional[int] = None
    pending_path: Optional[list[str]] = None
    parked: bool = False


@dataclass(frozen=True)
class FacadePrepared:
    """Opaque prepare result (only ``.version`` is contractual)."""

    flow_id: int
    version: int
    new_path: tuple[str, ...]


class _BaselineFacadeController(_Delegating):
    """Shared bridge from update_flow/trace completion to the
    prepare/push/listener contract."""

    def __init__(self, inner: Any, network: Any) -> None:
        self._inner = inner
        self.flow_db: dict[int, _FacadeRecord] = {}
        self.update_listeners: list = []
        self._versions = itertools.count(1)
        network.trace.subscribe(self._on_trace_event, (KIND_UPDATE_DONE,))

    # -- registration --------------------------------------------------------

    def register_flow(self, flow: Flow) -> _FacadeRecord:
        self._inner.register_flow(flow)
        record = _FacadeRecord(flow=flow, current_path=list(flow.old_path or []))
        self.flow_db[flow.flow_id] = record
        return record

    # -- prepare/push --------------------------------------------------------

    def prepare_update(self, flow_id: int, new_path: list[str]) -> FacadePrepared:
        record = self.flow_db[flow_id]
        if record.pending_version is not None:
            raise RuntimeError(
                f"flow {flow_id} already has pending facade version "
                f"{record.pending_version} (same-flow updates must serialize)"
            )
        version = next(self._versions)
        record.pending_version = version
        record.pending_path = list(new_path)
        return FacadePrepared(
            flow_id=flow_id, version=version, new_path=tuple(new_path)
        )

    def push_update(self, prepared: FacadePrepared) -> None:
        raise NotImplementedError

    # -- completion ----------------------------------------------------------

    def _match_done(self, event: TraceEvent) -> Optional[tuple[int, int]]:
        """(flow_id, facade_version) for a completion event, or None."""
        raise NotImplementedError

    def _on_trace_event(self, event: TraceEvent) -> None:
        """An ``update_done`` record (the only kind subscribed to)."""
        match = self._match_done(event)
        if match is None:
            return
        flow_id, version = match
        record = self.flow_db.get(flow_id)
        if record is not None and record.pending_version == version:
            record.current_path = list(record.pending_path or [])
            record.pending_version = None
            record.pending_path = None
        for listener in list(self.update_listeners):
            listener("completed", flow_id, version)


class EzSegwayFacadeController(_BaselineFacadeController):
    """Facade over :class:`~repro.baselines.ezsegway.EzSegwayController`."""

    def __init__(self, inner: Any, network: Any) -> None:
        super().__init__(inner, network)
        # (flow_id, inner update_id) -> facade version.
        self._active: dict[tuple[int, int], int] = {}

    def push_update(self, prepared: FacadePrepared) -> None:
        update_id = self._inner.update_flow(
            prepared.flow_id, list(prepared.new_path)
        )
        if update_id < 0:
            # The orchestrator serializes same-flow updates, so the
            # inner controller can never have an active update here.
            raise RuntimeError(
                f"flow {prepared.flow_id} already updating inside ez-Segway"
            )
        self._active[(prepared.flow_id, update_id)] = prepared.version

    def _match_done(self, event: TraceEvent) -> Optional[tuple[int, int]]:
        flow = event.detail.get("flow")
        update = event.detail.get("update")
        if flow is None or update is None:
            return None
        version = self._active.pop((int(flow), int(update)), None)
        if version is None:
            return None
        return int(flow), version


class CentralFacadeController(_BaselineFacadeController):
    """Facade over :class:`~repro.baselines.central.CentralController`."""

    def __init__(self, inner: Any, network: Any) -> None:
        super().__init__(inner, network)
        # flow_id -> facade version (Central completions carry no id;
        # same-flow serialization makes the flow id unambiguous).
        self._active: dict[int, int] = {}

    @property
    def congestion_aware(self) -> bool:
        return bool(self._inner.congestion_aware)

    @congestion_aware.setter
    def congestion_aware(self, enabled: bool) -> None:
        self._inner.congestion_aware = bool(enabled)

    def push_update(self, prepared: FacadePrepared) -> None:
        self._inner.update_flow(prepared.flow_id, list(prepared.new_path))
        self._active[prepared.flow_id] = prepared.version

    def _match_done(self, event: TraceEvent) -> Optional[tuple[int, int]]:
        flow = event.detail.get("flow")
        if flow is None:
            return None
        version = self._active.pop(int(flow), None)
        if version is None:
            return None
        return int(flow), version


def build_ezsegway_facade(
    topo: Topology,
    params: Optional[SimParams] = None,
    obs: Optional[ObsContext] = None,
) -> Deployment:
    deployment = build_ezsegway_network(topo, params=params, obs=obs)
    deployment.controller = EzSegwayFacadeController(
        deployment.controller, deployment.network
    )
    return deployment


def build_central_facade(
    topo: Topology,
    params: Optional[SimParams] = None,
    obs: Optional[ObsContext] = None,
) -> Deployment:
    deployment = build_central_network(topo, params=params, obs=obs)
    deployment.controller = CentralFacadeController(
        deployment.controller, deployment.network
    )
    return deployment
