"""Greedy ordering synthesis (McClurg-style baseline).

Update synthesis derives an explicit install order that avoids the
conflicts a concurrent execution could hit.  This strategy reuses the
interference analyzer's happens-before primitives at dispatch time:
before an update may go out, its static footprint is compared with
every in-flight update and every *earlier-submitted* queued request
(:func:`repro.analysis.interference.pair_conflicts` — version-slot
races and interleaving-only link overcommits).  Any conflict blocks
the dispatch, so conflicting updates install strictly in submission
order — a greedy topological sort of the happens-before graph, linear
in the conflict edges.

Submission order is a strict total order, so the injected ordering is
acyclic and the gate itself can never deadlock; genuinely unorderable
workloads (capacity swaps, where *no* order fits) still deadlock in
the data plane and surface as unfinished requests — exactly what the
compete scoreboard should show for a synthesis baseline without
augmentation.

The gate only reads orchestrator/controller state (no RNG, no clock,
no trace events), so a conflict-free workload runs byte-identically
to stock ``p4update``.
"""

from __future__ import annotations

from typing import Any, cast

from repro.algos.base import _Delegating
from repro.analysis.interference import pair_conflicts
from repro.core.controller import P4UpdateController


class _SynthesisController(_Delegating):
    """Thin proxy exposing the gate's counters on the controller (where
    ``run_service`` looks for ``strategy_stats``)."""

    def __init__(self, inner: P4UpdateController, stats: dict) -> None:
        self._inner = inner
        self._stats = stats

    def strategy_stats(self) -> dict[str, int]:
        return {k: v for k, v in sorted(self._stats.items()) if v}


class SynthesisDeployment(_Delegating):
    """Stock P4Update deployment plus a dispatch-order gate (the
    ``synthesis`` row's wrapper; the gate makes the row serve-only)."""

    def __init__(self, inner: Any) -> None:
        self._inner = inner
        self._stats: dict[str, int] = {"ordering_holds": 0}
        self._held: set[int] = set()
        inner.controller = cast(
            P4UpdateController,
            _SynthesisController(inner.controller, self._stats),
        )

    def dispatch_gate(self, orch: Any, request: Any) -> bool:
        """True when ``request`` may dispatch now (no happens-before
        predecessor still outstanding)."""
        candidate = orch._candidate_footprint(request.flow_id)
        if candidate is None:
            return True
        capacities = orch._capacities
        blockers = []
        for flow_id in orch.in_flight:
            other = orch._candidate_footprint(flow_id)
            if other is not None and pair_conflicts(candidate, other, capacities):
                blockers.append(flow_id)
                break
        if not blockers:
            for queued in orch.pending:
                if queued is request or queued.request_id >= request.request_id:
                    continue
                other = orch._candidate_footprint(queued.flow_id)
                if other is not None and pair_conflicts(
                    candidate, other, capacities
                ):
                    blockers.append(queued.flow_id)
                    break
        if blockers:
            if request.request_id not in self._held:
                self._held.add(request.request_id)
                self._stats["ordering_holds"] += 1
            return False
        return True
