"""The full-state live checker, kept as the differential reference.

``ReferenceLiveChecker._on_event`` and ``_disarm_through`` are the
bodies ``repro.consistency.LiveChecker`` had before it became
incremental, verbatim: at every ``rule_change`` re-run
``check_loop_freedom`` and ``check_congestion_freedom`` over the whole
state and re-walk every flow for arming and blackholes.  What it
reports *is* the specification — violations are serialised into
committed result signatures — so ``LiveChecker`` must agree with it
byte for byte.  The ``shadow_checker`` fixture (``tests/conftest.py``)
and ``test_incremental.py`` hold the two side by side.
"""

from __future__ import annotations

from typing import Optional

from repro.consistency.checker import (
    LiveChecker,
    Violation,
    check_congestion_freedom,
    check_loop_freedom,
)
from repro.consistency.state import ForwardingState
from repro.sim.trace import (
    KIND_LINK_DOWN,
    KIND_RULE_CHANGE,
    KIND_SWITCH_CRASH,
    Trace,
)


class ReferenceLiveChecker:
    """O(all flows) per event; see the module docstring."""

    #: Every instance built, so each shadow is compared.  The fixture
    #: swaps in a fresh list per test.
    instances: list["ReferenceLiveChecker"] = []

    def __init__(
        self,
        state: ForwardingState,
        trace: Trace,
        shadows: Optional[LiveChecker] = None,
    ) -> None:
        self.state = state
        self.violations: list[Violation] = []
        self._armed: set[tuple[int, str]] = set()
        self.shadows = shadows
        trace.subscribe(self._on_event)
        self.instances.append(self)

    def assert_agrees(self) -> None:
        live = self.shadows
        assert live is not None
        assert [repr(v) for v in live.violations] == [
            repr(v) for v in self.violations
        ]
        assert live._armed == self._armed

    def _disarm_through(self, node: Optional[str], edge: Optional[frozenset]) -> None:
        """Disarm flows whose current walk crosses the failed element."""
        for key in list(self._armed):
            flow_id, ingress = key
            path, _ = self.state.walk(flow_id, ingress=ingress)
            if node is not None and node in path:
                self._armed.discard(key)
                continue
            if edge is not None and any(
                frozenset(pair) == edge for pair in zip(path, path[1:])
            ):
                self._armed.discard(key)

    def _on_event(self, event) -> None:
        if event.kind == KIND_LINK_DOWN:
            peer = event.detail.get("peer")
            if peer is not None:
                self._disarm_through(None, frozenset((event.node, peer)))
            return
        if event.kind == KIND_SWITCH_CRASH:
            self._disarm_through(event.node, None)
            return
        if event.kind != KIND_RULE_CHANGE:
            return
        time = event.time
        loops = check_loop_freedom(self.state, time)
        self.violations.extend(loops.violations)
        congestion = check_congestion_freedom(self.state, time)
        self.violations.extend(congestion.violations)
        for flow_id in self.state.flow_ids():
            for ingress in self.state.ingresses(flow_id):
                key = (flow_id, ingress)
                _, outcome = self.state.walk(flow_id, ingress=ingress)
                if outcome == "delivered":
                    self._armed.add(key)
                elif outcome == "blackhole" and key in self._armed:
                    self.violations.append(
                        Violation(
                            time=time,
                            kind="blackhole",
                            flow_id=flow_id,
                            detail=f"established path from {ingress!r} lost",
                        )
                    )

    @property
    def ok(self) -> bool:
        return not self.violations
