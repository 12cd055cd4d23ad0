"""Causal attribution in exact rational arithmetic — the reference.

``ReferenceCausalTracker`` accumulates durations the way
``repro.obs.causal.CausalTracker`` did before it switched to IEEE
arithmetic, verbatim: two :class:`fractions.Fraction` per causal event
(event times are binary floats, hence exact rationals), one running
``Fraction`` per segment, one float conversion per exported number.
Those numbers are serialised into committed manifests
(``BENCH_serve_serve-smoke.json``), so the tracker's ``t - last_t`` and
``math.fsum`` must reproduce them bit for bit;
``test_causal_exact.py`` holds the two side by side.

It also keeps the event storage the tracker had before events became
tuples built into dicts at export: one event dict and one edge dict
appended per causal event, in its own :class:`_ReferenceTrack`.  Only
the routing of trace records (``__call__`` past ``request_submitted``)
is inherited, and it reaches storage through ``_append`` alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Optional

from repro.obs.causal import SEGMENTS, CausalTracker
from repro.sim.trace import KIND_REQUEST_SUBMITTED, TraceEvent

_ORCH = "orchestrator"


class _ReferenceTrack:
    """Per-request state with dict events and edges."""

    __slots__ = (
        "request_id", "flow_id", "state", "last_t", "pushed", "done",
        "outcome", "version", "events", "edges", "segments",
    )

    def __init__(self, request_id: int, flow_id: int, t: float) -> None:
        self.request_id = request_id
        self.flow_id = flow_id
        self.state = "queue_wait"
        self.last_t = t
        self.pushed = False
        self.done = False
        self.outcome: Optional[str] = None
        self.version: Optional[int] = None
        self.events: list[dict[str, Any]] = []
        self.edges: list[dict[str, Any]] = []
        self.segments: dict[str, Fraction] = {s: Fraction(0) for s in SEGMENTS}


class ReferenceCausalTracker(CausalTracker):
    """Same routing, ``Fraction`` bookkeeping; see the module docstring."""

    def __call__(self, event: TraceEvent) -> None:
        t, kind, _node, detail = event
        if kind != KIND_REQUEST_SUBMITTED:
            super().__call__(event)
            return
        request_id = detail["request"]
        track = _ReferenceTrack(request_id, detail["flow"], t)
        self._tracks[request_id] = track
        track.events.append(
            {"id": 0, "t": t, "kind": "submitted", "node": _ORCH}
        )

    def _append(
        self,
        track: _ReferenceTrack,
        t: float,
        kind: str,
        node: str,
        close_as: Optional[str],
        detail: dict[str, Any],
    ) -> None:
        segment = close_as if close_as is not None else track.state
        duration = Fraction(t) - Fraction(track.last_t)
        track.segments[segment] += duration
        eid = len(track.events)
        event: dict[str, Any] = {"id": eid, "t": t, "kind": kind, "node": node}
        if detail:
            event.update(detail)
        track.events.append(event)
        track.edges.append(
            {
                "src": eid - 1,
                "dst": eid,
                "segment": segment,
                "dur_ms": float(duration),
            }
        )
        track.last_t = t

    def attribution_rows(self) -> list[dict[str, Any]]:
        rows = []
        for request_id in sorted(self._tracks):
            track = self._tracks[request_id]
            segments = {s: float(track.segments[s]) for s in SEGMENTS}
            rows.append(
                {
                    "request_id": track.request_id,
                    "flow_id": track.flow_id,
                    "outcome": track.outcome,
                    "e2e_ms": float(sum(track.segments.values())),
                    "segments": segments,
                }
            )
        return rows

    def dags(self) -> list[dict[str, Any]]:
        docs = []
        for request_id in sorted(self._tracks):
            track = self._tracks[request_id]
            segments = {s: float(track.segments[s]) for s in SEGMENTS}
            e2e = float(sum(track.segments.values()))
            docs.append(
                {
                    "request_id": track.request_id,
                    "flow_id": track.flow_id,
                    "outcome": track.outcome,
                    "version": track.version,
                    "e2e_ms": e2e,
                    "segments": segments,
                    "events": list(track.events),
                    "edges": list(track.edges),
                }
            )
        return docs
