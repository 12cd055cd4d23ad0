"""Per-request causal tracing with critical-path latency attribution.

The serve layer (``repro.serve``) reports end-to-end SLO percentiles,
but a percentile cannot say *where* a slow request spent its time: in
the admission queue, blocked behind a same-flow/footprint conflict,
waiting out control-plane retransmissions under chaos, or in data-plane
verification.  The :class:`CausalTracker` follows each request from
admission through the orchestrator, the controller's prepare/push path,
reliable-control retries and the per-switch verification events,
recording a causal DAG of typed edges per request — every timestamp on
the **simulated** clock.

Attribution is a view of the trace: every input is a trace record that
every run writes (the ``request_*`` lifecycle, the flow-tagged install,
verify and completion kinds, ``retransmit`` and ``retrigger``).  The
tracker is a kind-routed trace subscriber — :meth:`ObsContext.bind
<repro.obs.context.ObsContext.bind>` attaches ``ObsContext.causal`` when
it is set — and :meth:`CausalTracker.from_trace` feeds an exported
trace file through the same entry point, so a trace written by any
serve run can be attributed afterwards without a rerun.

Attribution model
-----------------

At any simulated instant a live request is in exactly one *segment*
state (:data:`SEGMENTS`).  Every causal event appends one timeline
edge ``prev_event -> new_event`` labelled with the segment the request
occupied during that interval.  Because the edges tile the request's
lifetime with no gaps or overlaps, the per-segment duration sums
telescope to exactly the end-to-end latency — the invariant the
``trace-smoke`` CI job asserts on every request.  Attribution is exact
without rational arithmetic: every exported number is the *correctly
rounded* value of an exact sum of event times, which is what IEEE
arithmetic already returns.  An edge's ``dur_ms`` is ``t - last_t``
(one subtraction, correctly rounded by definition); each segment keeps
the signed endpoints ``[t, -last_t, ...]`` of its intervals and its
total is their :func:`math.fsum` (correctly rounded whatever the
cancellation), as is ``e2e_ms`` over all of them.  The only residual is
therefore one final rounding per number: well under the 1e-9 ms
acceptance bound.  ``tests/obs/reference_causal.py`` keeps the exact
rational accumulation these replaced and a property test holds the two
equal bit for bit.

The tracker only reads: it never touches the sim clock, the RNG
streams or the :class:`~repro.sim.trace.Trace`, so a causal-traced
run's trace signature is byte-identical to an untraced run's (asserted
by ``tests/serve/test_causal_service.py``).
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any, Iterable, Iterator, Optional

from repro.sim.trace import (
    KIND_FLOW_PARKED,
    KIND_REQUEST_ADMITTED,
    KIND_REQUEST_DISPATCHED,
    KIND_REQUEST_DONE,
    KIND_REQUEST_PUSHED,
    KIND_REQUEST_REQUEUED,
    KIND_REQUEST_SUBMITTED,
    KIND_REQUEST_WAIT,
    KIND_RETRANSMIT,
    KIND_RETRIGGER,
    KIND_RULE_CHANGE,
    KIND_UPDATE_ABORTED,
    KIND_UPDATE_DONE,
    KIND_VERIFY_FAIL,
    KIND_VERIFY_OK,
    TraceEvent,
)

#: The fixed attribution schema: every simulated millisecond of a
#: request's life lands in exactly one of these buckets.
SEGMENTS = (
    "queue_wait",         # admission queue / token bucket / in-flight cap
    "conflict_wait",      # blocked behind a same-flow or footprint conflict
    "prepare",            # controller queueing + prepare service time
    "control_rtt",        # controller <-> switch message travel (UIM out, UFM back)
    "retry_backoff",      # waiting out a lost message until a retransmit/retrigger
    "dataplane_verify",   # per-switch install + local verification chain
    "recovery",           # failure recovery owns the flow (abort/park/reroute)
)

_ORCH = "orchestrator"

#: Retries of a pushed update: the wait each one ended is retry_backoff.
_RETRY_KINDS = frozenset((KIND_RETRANSMIT, KIND_RETRIGGER))
#: Flow-tagged kinds, routed to the flow's in-flight request.  Same-flow
#: updates serialize, so the flow identifies the request unambiguously.
_FLOW_KINDS = frozenset((
    KIND_RULE_CHANGE, "rule_staged", KIND_VERIFY_OK, KIND_VERIFY_FAIL,
    KIND_UPDATE_DONE, KIND_UPDATE_ABORTED, KIND_FLOW_PARKED,
)) | _RETRY_KINDS


class _Track:
    """Mutable per-request tracking state (internal)."""

    __slots__ = (
        "request_id", "flow_id", "state", "last_t", "pushed", "done",
        "outcome", "version", "events", "segments",
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
        # One ``(t, kind, node, detail, segment)`` per causal event,
        # ``segment`` naming the interval the event closed; the event
        # and edge dicts of :meth:`CausalTracker.dags` are built at export.
        self.events: list[tuple] = [(t, "submitted", _ORCH, None, None)]
        # Signed endpoints of the intervals each segment was charged.
        self.segments: dict[str, list[float]] = {s: [] for s in SEGMENTS}


def _totals(track: _Track) -> tuple[float, dict[str, float]]:
    """Correctly rounded ``e2e_ms`` and per-segment totals of a track."""
    ends = track.segments
    return (
        math.fsum(itertools.chain.from_iterable(ends.values())),
        {s: math.fsum(ends[s]) for s in SEGMENTS},
    )


class CausalTracker:
    """One causal DAG per update request, read off the trace.

    A kind-routed trace subscriber (``trace.subscribe(tracker,
    tracker.routes)``), like :class:`~repro.obs.derived.DerivedMetrics`:
    every event it reads is in the always-on trace, so a live tracker
    and :meth:`from_trace` over an exported trace file build the same
    DAGs.  Pure bookkeeping on plain python state: it never schedules
    events, samples RNGs or records trace events.
    """

    #: Every kind the tracker reads.
    routes = _FLOW_KINDS | {
        KIND_REQUEST_SUBMITTED, KIND_REQUEST_ADMITTED, KIND_REQUEST_WAIT,
        KIND_REQUEST_DISPATCHED, KIND_REQUEST_REQUEUED, KIND_REQUEST_PUSHED,
        KIND_REQUEST_DONE,
    }

    def __init__(self) -> None:
        self._tracks: dict[int, _Track] = {}
        # While a request is in flight its flow routes events to it (at
        # most one in-flight request per flow, by construction).
        self._by_flow: dict[int, int] = {}

    @classmethod
    def from_trace(cls, events: Iterable[TraceEvent]) -> "CausalTracker":
        """A tracker fed every routed event of ``events``, in order."""
        tracker = cls()
        for event in events:
            if event.kind in cls.routes:
                tracker(event)
        return tracker

    def __call__(self, event: TraceEvent) -> None:
        t, kind, node, detail = event
        if kind == KIND_REQUEST_SUBMITTED:
            request_id = detail["request"]
            self._tracks[request_id] = _Track(request_id, detail["flow"], t)
            return
        if kind in _FLOW_KINDS:
            self._flow_event(t, kind, node, detail)
            return
        request_id = detail["request"]
        track = self._tracks.get(request_id)
        if track is None:
            return
        if kind in (KIND_REQUEST_DONE, KIND_REQUEST_REQUEUED):
            if self._by_flow.get(track.flow_id) == request_id:
                del self._by_flow[track.flow_id]
        if track.done:
            return
        if kind == KIND_REQUEST_ADMITTED:
            self._append(track, t, "admitted", node, None,
                         {"queue_depth": detail["queue_depth"]})
        elif kind == KIND_REQUEST_WAIT:
            # Written only when the reason changes, so never a no-op.
            self._append(track, t, "wait", node, None,
                         {"from": track.state, "to": detail["to"]})
            track.state = detail["to"]
        elif kind == KIND_REQUEST_DISPATCHED:
            self._append(track, t, "dispatched", node, None, {})
            track.state = "prepare"
            self._by_flow[track.flow_id] = request_id
        elif kind == KIND_REQUEST_REQUEUED:
            self._append(track, t, "requeued", node, None, {})
            track.state = "recovery"
        elif kind == KIND_REQUEST_PUSHED:
            # The prepared update entered the control channel.
            version = detail["version"]
            self._append(track, t, "pushed", node, None, {"version": version})
            track.state = "control_rtt"
            track.pushed = True
            track.version = version
        else:
            self._finish(track, t, node, detail["outcome"])

    def _finish(self, track: _Track, t: float, node: str, outcome: str) -> None:
        """Terminal outcome reached; closes the tail interval.

        * ``completed`` — a tail still in ``control_rtt`` or
          ``dataplane_verify`` closes as ``control_rtt`` (the UFM
          return leg to the controller plus the completion callback);
        * ``aborted`` / ``flow_parked`` — the tail is failure handling:
          ``recovery``;
        * anything else closes as the current state.
        """
        if outcome in ("aborted", "flow_parked"):
            close_as = "recovery"
        elif outcome == "completed" and track.state in (
            "control_rtt", "dataplane_verify"
        ):
            close_as = "control_rtt"
        else:
            close_as = track.state
        self._append(track, t, "done", node, close_as, {"outcome": outcome})
        track.done = True
        track.outcome = outcome

    def _flow_event(
        self, t: float, kind: str, node: str, detail: dict[str, Any]
    ) -> None:
        """Route a flow-tagged event to its flow's in-flight request.

        Only meaningful after the push (pre-push events for the flow —
        e.g. recovery writes — belong to the chaos layer, not to this
        request).  A retry closes the idle gap it waited out as
        ``retry_backoff`` and the resent message then travels as
        ``control_rtt``; ``update_done`` closes as ``control_rtt`` (the
        UFM just landed back at the controller); abort/park events
        switch the request into ``recovery``; everything else is
        data-plane install/verify work.
        """
        track = self._tracks.get(self._by_flow.get(detail.get("flow")))  # type: ignore[arg-type]
        if track is None or track.done or not track.pushed:
            return
        close_as: Optional[str] = None
        if kind in _RETRY_KINDS:
            if track.state in ("control_rtt", "dataplane_verify"):
                close_as = "retry_backoff"
            state = "control_rtt"
            note = {k: v for k, v in detail.items() if k != "flow"}
        else:
            if kind == KIND_UPDATE_DONE:
                close_as = state = "control_rtt"
            elif kind in (KIND_UPDATE_ABORTED, KIND_FLOW_PARKED):
                state = "recovery"
            else:
                state = "dataplane_verify"
            version = detail.get("version")
            note = {} if version is None else {"version": version}
        self._append(track, t, kind, node, close_as, note)
        track.state = state

    # -- internals ----------------------------------------------------------

    def _append(
        self,
        track: _Track,
        t: float,
        kind: str,
        node: str,
        close_as: Optional[str],
        detail: dict[str, Any],
    ) -> None:
        segment = close_as if close_as is not None else track.state
        track.segments[segment] += (t, -track.last_t)
        track.events.append((t, kind, node, detail, segment))
        track.last_t = t

    # -- exports ------------------------------------------------------------

    def attribution_rows(self) -> list[dict[str, Any]]:
        """Compact per-request attribution (sorted by request id)."""
        rows = []
        for request_id in sorted(self._tracks):
            track = self._tracks[request_id]
            e2e, segments = _totals(track)
            rows.append(
                {
                    "request_id": track.request_id,
                    "flow_id": track.flow_id,
                    "outcome": track.outcome,
                    "e2e_ms": e2e,
                    "segments": segments,
                }
            )
        return rows

    def dags(self) -> list[dict[str, Any]]:
        """Full causal DAGs (events + typed edges), sorted by request."""
        docs = []
        for request_id in sorted(self._tracks):
            track = self._tracks[request_id]
            e2e, segments = _totals(track)
            events: list[dict[str, Any]] = []
            edges: list[dict[str, Any]] = []
            last_t = 0.0
            for eid, (t, kind, node, detail, segment) in enumerate(track.events):
                event: dict[str, Any] = {"id": eid, "t": t, "kind": kind, "node": node}
                if detail:
                    event.update(detail)
                events.append(event)
                if eid:  # the event's ``last_t`` was its predecessor's ``t``
                    edges.append({"src": eid - 1, "dst": eid, "segment": segment,
                                  "dur_ms": t - last_t})
                last_t = t
            docs.append(
                {
                    "request_id": track.request_id,
                    "flow_id": track.flow_id,
                    "outcome": track.outcome,
                    "version": track.version,
                    "e2e_ms": e2e,
                    "segments": segments,
                    "events": events,
                    "edges": edges,
                }
            )
        return docs


# -- critical path ------------------------------------------------------------


def critical_path(dag: dict) -> dict[str, Any]:
    """Extract the critical path of one request DAG.

    Walks back from the terminal event, at each node choosing the
    incoming edge whose source event is latest (ties: largest event
    id).  On the timeline DAGs the tracker records this is the full
    event chain; the extractor stays general so additional non-timeline
    edge types keep working.
    """
    events = {e["id"]: e for e in dag["events"]}
    incoming: dict[int, list[dict]] = {}
    for edge in dag["edges"]:
        incoming.setdefault(edge["dst"], []).append(edge)
    terminal = max(events) if events else 0
    steps: list[dict[str, Any]] = []
    cursor = terminal
    while cursor in incoming:
        edge = max(
            incoming[cursor],
            key=lambda e: (events[e["src"]]["t"], e["src"]),
        )
        src, dst = events[edge["src"]], events[edge["dst"]]
        steps.append(
            {
                "t0": src["t"],
                "t1": dst["t"],
                "segment": edge["segment"],
                "dur_ms": edge["dur_ms"],
                "from": src["kind"],
                "to": dst["kind"],
                "node": dst["node"],
            }
        )
        cursor = edge["src"]
    steps.reverse()
    totals = {s: 0.0 for s in SEGMENTS}
    for step in steps:
        totals[step["segment"]] += step["dur_ms"]
    return {
        "request_id": dag["request_id"],
        "flow_id": dag["flow_id"],
        "outcome": dag.get("outcome"),
        "e2e_ms": dag.get("e2e_ms"),
        "steps": steps,
        "segment_totals": totals,
    }


# -- aggregation --------------------------------------------------------------


def nearest_rank(values: list[float], pct: int) -> Optional[float]:
    """Nearest-rank percentile — pure python, no float surprises."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without floats
    return ordered[rank - 1]


#: SLO percentiles reported per latency series.
_PERCENTILES = (50, 90, 99)


def slo_summary(values: list[float]) -> dict[str, Any]:
    """Count, nearest-rank SLO percentiles and max of one latency series."""
    doc: dict[str, Any] = {"count": len(values)}
    for pct in _PERCENTILES:
        doc[f"p{pct}"] = nearest_rank(values, pct)
    doc["max"] = max(values) if values else None
    return doc


def summarize_attribution(rows: Iterable[dict]) -> dict[str, Any]:
    """Deterministic fleet summary of per-request attribution rows.

    Worker-count independent by construction: the rows are pure
    simulated-time facts, and nearest-rank percentiles over the merged
    row set do not depend on which shard contributed which row.
    """
    rows = list(rows)
    doc: dict[str, Any] = {"requests": len(rows)}
    e2e = [float(r["e2e_ms"]) for r in rows]
    doc["e2e_ms"] = {**slo_summary(e2e), "total": sum(e2e)}
    segments: dict[str, Any] = {}
    for segment in SEGMENTS:
        values = [float(r["segments"][segment]) for r in rows]
        segments[segment] = {**slo_summary(values), "total": sum(values)}
    doc["segments"] = segments
    doc["residual_max_ms"] = max(
        (
            abs(sum(r["segments"][s] for s in SEGMENTS) - float(r["e2e_ms"]))
            for r in rows
        ),
        default=0.0,
    )
    return doc


# -- Perfetto / Chrome trace export -------------------------------------------


def perfetto_trace(dags: Iterable[dict]) -> dict[str, Any]:
    """Chrome trace-event JSON viewable in ``ui.perfetto.dev``.

    One thread per request (tid = request id); every attribution
    interval becomes a complete slice (``ph: "X"``) named after its
    segment, and every causal event an instant (``ph: "i"``).  All
    timestamps convert simulated ms -> trace µs.
    """
    trace_events: list[dict[str, Any]] = [
        {
            "ph": "M", "name": "process_name", "pid": 0, "tid": 0,
            "args": {"name": "repro.serve requests"},
        }
    ]
    for dag in dags:
        tid = int(dag["request_id"])
        label = (
            f"request {dag['request_id']} "
            f"(flow {dag['flow_id']}, {dag.get('outcome')})"
        )
        trace_events.append(
            {
                "ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
                "args": {"name": label},
            }
        )
        events = {e["id"]: e for e in dag["events"]}
        for edge in dag["edges"]:
            if edge["dur_ms"] <= 0.0:
                continue
            src = events[edge["src"]]
            trace_events.append(
                {
                    "ph": "X",
                    "name": edge["segment"],
                    "cat": "attribution",
                    "pid": 0,
                    "tid": tid,
                    "ts": src["t"] * 1000.0,
                    "dur": edge["dur_ms"] * 1000.0,
                    "args": {
                        "from": src["kind"],
                        "to": events[edge["dst"]]["kind"],
                    },
                }
            )
        for event in dag["events"]:
            args = {
                k: v for k, v in event.items()
                if k not in ("id", "t", "kind", "node")
            }
            args["node"] = event["node"]
            trace_events.append(
                {
                    "ph": "i",
                    "name": event["kind"],
                    "cat": "causal",
                    "s": "t",
                    "pid": 0,
                    "tid": tid,
                    "ts": event["t"] * 1000.0,
                    "args": args,
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# -- sidecar persistence ------------------------------------------------------


def write_causal_jsonl(dags: Iterable[dict], path_or_file: Any) -> int:
    """One request DAG per JSONL line (``.gz`` paths gzip on the fly)."""
    from repro.obs.tracefile import open_jsonl

    handle, owned = open_jsonl(path_or_file, "w")
    count = 0
    try:
        for dag in dags:
            handle.write(json.dumps(dag, sort_keys=True))
            handle.write("\n")
            count += 1
    finally:
        if owned:
            handle.close()
    return count


#: What every line of a sidecar carries (a DAG of :meth:`CausalTracker.dags`).
_DAG_KEYS = ("request_id", "flow_id", "e2e_ms", "segments", "events", "edges")


def iter_causal_jsonl(path_or_file: Any) -> Iterator[dict]:
    """Stream request DAGs back from a sidecar file; a line that is
    not a request DAG (e.g. a trace record) is a ``ValueError``."""
    from repro.obs.tracefile import open_jsonl

    handle, owned = open_jsonl(path_or_file, "r")
    try:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"bad causal line {lineno}: {exc}"
                ) from exc
            if not isinstance(doc, dict):
                raise ValueError(f"bad causal line {lineno}: not an object")
            missing = [key for key in _DAG_KEYS if key not in doc]
            if missing:
                raise ValueError(
                    f"bad causal line {lineno}: not a request DAG "
                    f"(no {', '.join(missing)})"
                )
            yield doc
    finally:
        if owned:
            handle.close()
