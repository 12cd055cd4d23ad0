"""What a baseline controller keeps to speak the update contract of
:mod:`repro.algos.registry`: a flow DB record per flow and the
``("completed", flow_id, version)`` callback."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim.node import ControllerNode
from repro.traffic.flows import Flow


@dataclass
class FlowRecord:
    """The controller's view of one flow, as the orchestrator reads it."""

    flow: Flow
    current_path: list[str]
    pending_version: Optional[int] = None
    pending_path: Optional[list[str]] = None
    #: A baseline has no §11 recovery, so it never parks a flow.
    parked: bool = False


class ContractController(ControllerNode):
    """A controller with ``flow_db`` and ``update_listeners``."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.flow_db: dict[int, FlowRecord] = {}
        self.update_listeners: list[Callable[[str, int, Optional[int]], None]] = []

    def _track(self, flow: Flow) -> None:
        self.flow_db[flow.flow_id] = FlowRecord(flow, list(flow.old_path or []))

    def _pend(self, flow_id: int, version: int, new_path: list[str]) -> None:
        record = self.flow_db[flow_id]
        record.pending_version = version
        record.pending_path = list(new_path)

    def _complete(self, flow_id: int, version: Optional[int]) -> None:
        """Update ``version`` of ``flow_id`` is in place: called right
        where the controller records ``KIND_UPDATE_DONE``."""
        record = self.flow_db[flow_id]
        if record.pending_version == version:
            record.current_path = record.pending_path or record.current_path
            record.pending_version = None
            record.pending_path = None
        for listener in list(self.update_listeners):
            listener("completed", flow_id, version)
