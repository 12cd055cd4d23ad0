"""The update contract every controller speaks.

:class:`UpdateController` is the base of the P4Update, ez-Segway and
Central controllers.  What the orchestrator, the live checker and the
harness read of a controller lives here, once:

1. **prepare**: ``prepare_update(flow_id, new_path, update_type)``
   returns a prepared object carrying a ``.version`` — the handle
   completion and abort notifications are matched against — and
   records it as the flow's pending update.  Callers that prepare on a
   system's behalf pass ``deployment.update_type`` (the registry row's
   forced layer, ``None`` for the §7.5 rule); systems with one
   mechanism ignore it.
2. **push**: ``push_update(prepared)`` stamps ``update_sent_at`` and
   hands the update to the algorithm; installation and (for P4Update)
   local verification proceed inside the simulation.
   :meth:`UpdateController.update_flow` is both in one call.
3. **completion**: :meth:`UpdateController._complete` moves the flow
   onto its pending path, stamps ``update_done_at``, records the
   ``update_done`` trace event and calls every ``update_listeners``
   callback as ``listener(event, flow_id, version)``.  The events are
   ``"completed"`` and, from P4Update's §11 recovery, ``"aborted"``,
   ``"reissued"`` and ``"parked"``.
4. **queries**: ``update_complete``, ``all_updates_complete`` and
   ``update_duration`` read the :class:`FlowRecord` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generic, Optional, TypeVar, cast

from repro.sim.node import ControllerNode
from repro.sim.trace import KIND_UPDATE_DONE
from repro.traffic.flows import Flow

UpdateListener = Callable[[str, int, Optional[int]], None]


@dataclass
class FlowRecord:
    """Flow DB entry: the controller's view of one flow."""

    flow: Flow
    current_path: list[str]
    pending_path: Optional[list[str]] = None
    pending_version: Optional[int] = None
    update_sent_at: Optional[float] = None
    update_done_at: Optional[float] = None
    #: Set by P4Update's §11 recovery when no alternate path exists.
    parked: bool = False


RecordT = TypeVar("RecordT", bound=FlowRecord)


class Notifier:
    """The one loop that tells ``update_listeners`` about an update
    (shared with controller facades such as ``augmented``)."""

    update_listeners: list[UpdateListener]

    def _notify(self, event: str, flow_id: int, version: Optional[int]) -> None:
        for listener in self.update_listeners:
            listener(event, flow_id, version)


class UpdateController(ControllerNode, Notifier, Generic[RecordT]):
    """A controller's Flow DB, listeners, completion step and queries."""

    def __init__(self, name: str) -> None:
        super().__init__(name)
        self.flow_db: dict[int, RecordT] = {}
        self.update_listeners = []

    def register_flow(self, flow: Flow) -> RecordT:
        if flow.old_path is None:
            raise ValueError(f"flow {flow.flow_id} has no initial path")
        record = self._new_record(flow, list(flow.old_path))
        self.flow_db[flow.flow_id] = record
        return record

    def _new_record(self, flow: Flow, path: list[str]) -> RecordT:
        return cast(RecordT, FlowRecord(flow, path))

    def prepare_update(
        self, flow_id: int, new_path: list[str], update_type: Any = None
    ) -> Any:
        raise NotImplementedError

    def push_update(self, prepared: Any) -> None:
        raise NotImplementedError

    def update_flow(
        self, flow_id: int, new_path: list[str], update_type: Any = None
    ) -> Any:
        """Prepare and immediately push an update."""
        prepared = self.prepare_update(flow_id, new_path, update_type)
        self.push_update(prepared)
        return prepared

    def _complete(self, record: RecordT, version: Optional[int], /, **done: Any) -> None:
        """Update ``version`` of ``record``'s flow is in place; ``done``
        are the system's own fields of the ``update_done`` record."""
        now = self.now
        if record.pending_version == version:
            record.current_path = list(record.pending_path or record.current_path)
            record.pending_path = None
            record.pending_version = None
        record.update_done_at = now
        flow_id = record.flow.flow_id
        if self.network is not None:
            self.network.trace.record(
                now, KIND_UPDATE_DONE, self.name, flow=flow_id, **done
            )
        self._notify("completed", flow_id, version)

    # -- queries -----------------------------------------------------------

    def update_complete(self, flow_id: int) -> bool:
        record = self.flow_db.get(flow_id)
        return record is not None and record.pending_version is None

    def all_updates_complete(self) -> bool:
        return all(r.pending_version is None for r in self.flow_db.values())

    def update_duration(self, flow_id: int) -> Optional[float]:
        """Sent-to-done time of the flow's latest completed update."""
        record = self.flow_db.get(flow_id)
        if record is None or record.update_done_at is None or record.update_sent_at is None:
            return None
        return record.update_done_at - record.update_sent_at
