"""Metrics that are pure counts of trace events: a view of the trace.

Every event these metrics count is already in the always-on trace
(``repro.sim.trace``, which signatures need), so they have no hook at
the event site.  :meth:`ObsContext.bind <repro.obs.context.ObsContext.bind>`
subscribes one :class:`DerivedMetrics` to the run's trace, and it counts
each routed event inside ``Trace.record`` — the moment an inline hook
ran.  So instrument creation order, the fuzzer's coverage reads between
cases and counts under a bounded trace ring (which prunes the per-kind
index) are what the hooks gave.  A run without metrics subscribes
nothing and pays nothing.
"""

from __future__ import annotations

from repro.sim.trace import (
    DATA_PLANE_KEY,
    KIND_CONTROLLER_DOWN,
    KIND_CONTROLLER_UP,
    KIND_FLOW_PARKED,
    KIND_LINK_DOWN,
    KIND_LINK_UP,
    KIND_MSG_DROP,
    KIND_MSG_RECV,
    KIND_MSG_SEND,
    KIND_REQUEST_DONE,
    KIND_REQUEST_SHED,
    KIND_RETRANSMIT,
    KIND_RETRIGGER,
    KIND_RULE_CHANGE,
    KIND_SWITCH_CRASH,
    KIND_SWITCH_RESTART,
    KIND_UPDATE_ABORTED,
    KIND_VERIFY_FAIL,
    TraceEvent,
)

#: ``(counter, its labels, the trace kinds it counts)``.  A one-label
#: counter's value is the event's kind for ``kind``, its node for
#: ``node``, and the detail key of the label's name otherwise.  The
#: message counters are labelled by the record's node, its plane and
#: its ``type`` key.
VIEWS = (
    ("topo_events", ("kind",), (
        KIND_LINK_DOWN, KIND_LINK_UP, KIND_SWITCH_CRASH,
        KIND_SWITCH_RESTART, KIND_CONTROLLER_DOWN, KIND_CONTROLLER_UP,
    )),
    ("rule_installs", ("node",), (KIND_RULE_CHANGE,)),
    ("verification_fail", ("node",), (KIND_VERIFY_FAIL,)),
    ("updates_aborted", ("node",), (KIND_UPDATE_ABORTED,)),
    ("flows_parked", ("node",), (KIND_FLOW_PARKED,)),
    ("serve_shed", ("policy",), (KIND_REQUEST_SHED,)),
    ("serve_requests", ("outcome",), (KIND_REQUEST_DONE,)),
    ("messages_sent", ("node", "plane", "type"), (KIND_MSG_SEND, KIND_MSG_DROP)),
    ("messages_received", ("node", "plane", "type"), (KIND_MSG_RECV,)),
    ("messages_dropped", ("node", "plane", "type"), (KIND_MSG_DROP,)),
    ("control_retransmissions", ("target",), (KIND_RETRANSMIT,)),
    ("update_retriggers", ("node",), (KIND_RETRIGGER,)),
)

#: ``(counter, kind) -> detail keys``: the counter skips an event of the
#: kind that carries any of them.  A ``rule_change`` that removes a rule
#: (cleanup, crash) or flips a 2PC tag installs nothing.  A failure loss
#: (``reason``) is ``messages_lost_to_failure``'s; of the fault drops,
#: only the control plane's (no ``dest``) was never recorded as a send.
_SKIP_IF = {
    ("rule_installs", KIND_RULE_CHANGE): frozenset(("cleanup", "crash", "two_phase_flip")),
    ("messages_sent", KIND_MSG_DROP): frozenset(("reason", "dest")),
    ("messages_dropped", KIND_MSG_DROP): frozenset(("reason",)),
}


class DerivedMetrics:
    """The :data:`VIEWS` counters of one registry, as one trace
    subscriber routed to the kinds it counts."""

    __slots__ = ("routes",)

    def __init__(self, metrics) -> None:
        #: trace kind -> [(counter family, its one label or None for a
        #: message counter, detail keys it skips on), ...] in VIEWS order
        self.routes: dict[str, list] = {}
        for name, labels, kinds in VIEWS:
            family = metrics.family("counter", name, *labels)
            label = labels[0] if len(labels) == 1 else None
            for kind in kinds:
                skip_if = _SKIP_IF.get((name, kind), frozenset())
                self.routes.setdefault(kind, []).append((family, label, skip_if))

    def __call__(self, event: TraceEvent) -> None:
        _time, kind, node, detail = event
        for family, label, skip_if in self.routes[kind]:
            if not skip_if.isdisjoint(detail):
                continue
            if label is None:
                plane = "data" if DATA_PLANE_KEY[kind] in detail else "control"
                family[node, plane, detail["type"]].inc()
            elif label == "kind":
                family[(kind,)].inc()
            elif label == "node":
                family[(node,)].inc()
            else:
                family[(detail[label],)].inc()
