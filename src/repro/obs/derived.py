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
    KIND_CONTROLLER_DOWN,
    KIND_CONTROLLER_UP,
    KIND_FLOW_PARKED,
    KIND_LINK_DOWN,
    KIND_LINK_UP,
    KIND_REQUEST_DONE,
    KIND_REQUEST_SHED,
    KIND_RULE_CHANGE,
    KIND_SWITCH_CRASH,
    KIND_SWITCH_RESTART,
    KIND_UPDATE_ABORTED,
    KIND_VERIFY_FAIL,
    TraceEvent,
)

#: ``(counter, its one label, the trace kinds it counts)``.  The label's
#: value is the event's kind for ``kind``, its node for ``node``, and
#: the detail key of the label's name otherwise.
VIEWS = (
    ("topo_events", "kind", (
        KIND_LINK_DOWN, KIND_LINK_UP, KIND_SWITCH_CRASH,
        KIND_SWITCH_RESTART, KIND_CONTROLLER_DOWN, KIND_CONTROLLER_UP,
    )),
    ("rule_installs", "node", (KIND_RULE_CHANGE,)),
    ("verification_fail", "node", (KIND_VERIFY_FAIL,)),
    ("updates_aborted", "node", (KIND_UPDATE_ABORTED,)),
    ("flows_parked", "node", (KIND_FLOW_PARKED,)),
    ("serve_shed", "policy", (KIND_REQUEST_SHED,)),
    ("serve_requests", "outcome", (KIND_REQUEST_DONE,)),
)

#: A ``rule_change`` carrying one of these detail keys removes a rule
#: (cleanup, crash) or flips a 2PC tag; it installs nothing.
_NOT_AN_INSTALL = frozenset(("cleanup", "crash", "two_phase_flip"))


class DerivedMetrics:
    """The :data:`VIEWS` counters of one registry, as one picklable
    trace subscriber routed to the kinds it counts."""

    __slots__ = ("routes",)

    def __init__(self, metrics) -> None:
        #: trace kind -> (counter family, label)
        self.routes = {
            kind: (metrics.family("counter", name, label), label)
            for name, label, kinds in VIEWS
            for kind in kinds
        }

    def __call__(self, event: TraceEvent) -> None:
        _time, kind, node, detail = event
        family, label = self.routes[kind]
        if label == "kind":
            family[(kind,)].inc()
        elif label != "node":
            family[(detail[label],)].inc()
        elif kind != KIND_RULE_CHANGE or _NOT_AN_INSTALL.isdisjoint(detail):
            family[(node,)].inc()
