"""Message counts by type and plane, tallied live from a run's trace.

The paper's core scalability argument is about *where* messages flow:
P4Update pushes one UIM per switch and then coordinates via data-plane
UNMs, while Central takes a controller round-trip per dependency round.
:func:`watch_messages` quantifies that as the run sends them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.trace import DATA_PLANE_KEY, KIND_MSG_SEND, Trace, TraceEvent

_DATA_KEY = DATA_PLANE_KEY[KIND_MSG_SEND]


@dataclass
class MessageStats:
    """Counts of messages sent during a run, by type and plane.

    A type is the ``type`` key of the ``msg_send`` record
    (``repro.sim.network.message_type`` on the data plane, the class
    name on the control plane); the plane is
    :data:`~repro.sim.trace.DATA_PLANE_KEY`'s.
    """

    by_type: dict = field(default_factory=dict)
    control_plane: int = 0
    data_plane: int = 0

    @property
    def total(self) -> int:
        return sum(self.by_type.values())

    def _tally(self, event: TraceEvent) -> None:
        detail = event.detail
        name = detail["type"]
        self.by_type[name] = self.by_type.get(name, 0) + 1
        if _DATA_KEY in detail:
            self.data_plane += 1
        else:
            self.control_plane += 1


def watch_messages(trace: Trace) -> MessageStats:
    """The tally of every message ``trace`` records as sent from now on:
    a kinded subscriber, so call it before the run."""
    stats = MessageStats()
    trace.subscribe(stats._tally, (KIND_MSG_SEND,))
    return stats
