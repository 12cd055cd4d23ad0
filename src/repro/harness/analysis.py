"""Post-hoc trace analysis: message counts and overhead breakdowns.

The paper's core scalability argument is about *where* messages flow:
P4Update pushes one UIM per switch and then coordinates via data-plane
UNMs, while Central takes a controller round-trip per dependency round.
These helpers quantify that from a run's trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.trace import DATA_PLANE_KEY, KIND_MSG_SEND, Trace


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


def count_messages(trace: Trace) -> MessageStats:
    """Tally every sent message in a trace by its type and plane."""
    stats = MessageStats()
    data_key = DATA_PLANE_KEY[KIND_MSG_SEND]
    for event in trace.of_kind(KIND_MSG_SEND):
        detail = event.detail
        name = detail["type"]
        stats.by_type[name] = stats.by_type.get(name, 0) + 1
        if data_key in detail:
            stats.data_plane += 1
        else:
            stats.control_plane += 1
    return stats
