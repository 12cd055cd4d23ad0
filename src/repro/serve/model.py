"""Request/result model for the update service.

An :class:`UpdateRequest` walks a fixed lifecycle::

    submitted -> admitted -> dispatched -> pushed -> terminal

with timestamps (simulated ms) recorded at each edge.  Exactly one
terminal outcome is ever assigned — :meth:`UpdateRequest.finish`
raises on a second assignment, which is the invariant the serve-smoke
CI job asserts ("no admitted request is both completed and aborted").
"""

from __future__ import annotations

from typing import Any, Optional

#: Terminal outcomes a request can reach.
OUTCOME_COMPLETED = "completed"      # update committed (UFM at controller)
OUTCOME_REJECTED = "rejected"        # shed at admission (queue full)
OUTCOME_MERGED = "merged"            # superseded by a newer same-flow request
OUTCOME_ABORTED = "aborted"          # chaos rolled the pending update back
OUTCOME_FLOW_PARKED = "flow_parked"  # no alternate path after a failure
OUTCOME_UNFINISHED = "unfinished"    # horizon expired first

OUTCOMES = (
    OUTCOME_COMPLETED,
    OUTCOME_REJECTED,
    OUTCOME_MERGED,
    OUTCOME_ABORTED,
    OUTCOME_FLOW_PARKED,
    OUTCOME_UNFINISHED,
)


class UpdateRequest:
    """One tenant request to reroute a flow."""

    __slots__ = (
        "request_id",
        "flow_id",
        "submitted_ms",
        "admitted_ms",
        "queue_depth_at_admit",
        "dispatched_ms",
        "pushed_ms",
        "last_install_ms",
        "completed_ms",
        "version",
        "outcome",
        "wait_reason",
    )

    def __init__(self, request_id: int, flow_id: int, submitted_ms: float) -> None:
        self.request_id = request_id
        self.flow_id = flow_id
        self.submitted_ms = submitted_ms
        self.admitted_ms: Optional[float] = None
        # Main-queue occupancy observed at the admission instant (cross-
        # checks queue_wait attribution against the serve_queue_depth
        # gauge); None for requests shed before admission.
        self.queue_depth_at_admit: Optional[int] = None
        self.dispatched_ms: Optional[float] = None
        self.pushed_ms: Optional[float] = None
        self.last_install_ms: Optional[float] = None
        self.completed_ms: Optional[float] = None
        self.version: Optional[int] = None
        self.outcome: Optional[str] = None
        # The wait reason last recorded for the request while queued
        # (``request_wait`` is written only when it changes).
        self.wait_reason = "queue_wait"

    @property
    def terminal(self) -> bool:
        return self.outcome is not None

    def finish(self, outcome: str, now: float) -> None:
        """Assign the terminal outcome — exactly once, ever."""
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r}")
        if self.outcome is not None:
            raise RuntimeError(
                f"request {self.request_id} (flow {self.flow_id}) already "
                f"finished as {self.outcome!r}; refusing second terminal "
                f"outcome {outcome!r}"
            )
        self.outcome = outcome
        self.completed_ms = now

    def to_record(self) -> dict[str, Any]:
        """JSON-safe record for manifests and signatures."""
        return {
            "request_id": self.request_id,
            "flow_id": self.flow_id,
            "submitted_ms": self.submitted_ms,
            "admitted_ms": self.admitted_ms,
            "queue_depth_at_admit": self.queue_depth_at_admit,
            "dispatched_ms": self.dispatched_ms,
            "pushed_ms": self.pushed_ms,
            "last_install_ms": self.last_install_ms,
            "completed_ms": self.completed_ms,
            "version": self.version,
            "outcome": self.outcome,
        }
