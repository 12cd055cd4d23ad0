"""Trace serialization: JSONL export/import, filtering, summaries.

One :class:`~repro.sim.trace.TraceEvent` per line::

    {"time": 12.5, "kind": "msg_send", "node": "v3", "detail": {...}}

Export → import round-trips losslessly for JSON-representable details
(tuples inside details are normalised to lists *before* export, so the
re-imported events compare equal).  Detail keys keep the order they
were recorded in — the order signature format v2 reads — so a trace
read back signs as the one written.  The helpers underneath power the
``p4update-repro obs`` CLI subcommand.
"""

from __future__ import annotations

import json
import os
from typing import IO, Iterable, Iterator, Optional, Union

from repro.sim.trace import Trace, TraceEvent

PathOrFile = Union[str, "os.PathLike[str]", IO[str]]


def _jsonify(value):
    """Normalise a detail value into its JSON-stable form."""
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(k): _jsonify(v) for k, v in value.items()}
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def event_to_dict(event: TraceEvent) -> dict:
    return {
        "detail": _jsonify(event.detail),
        "kind": event.kind,
        "node": event.node,
        "time": event.time,
    }


def event_from_dict(doc: dict) -> TraceEvent:
    return TraceEvent(
        time=float(doc["time"]),
        kind=doc["kind"],
        node=doc["node"],
        detail=doc.get("detail") or {},
    )


def open_jsonl(path_or_file: PathOrFile, mode: str):
    """``(handle, owned)`` for a path (``.gz`` gzips transparently) or
    an already-open file object (not owned: the caller keeps it open)."""
    if hasattr(path_or_file, "write") or hasattr(path_or_file, "read"):
        return path_or_file, False
    path = os.fspath(path_or_file)
    if path.endswith(".gz"):
        import gzip

        return gzip.open(path, mode + "t", encoding="utf-8"), True
    return open(path, mode, encoding="utf-8"), True


def export_trace_jsonl(
    trace_or_events: Union[Trace, Iterable[TraceEvent]],
    path_or_file: PathOrFile,
) -> int:
    """Write one JSON object per event; returns the event count."""
    handle, owned = open_jsonl(path_or_file, "w")
    count = 0
    try:
        for event in trace_or_events:
            handle.write(json.dumps(event_to_dict(event)))
            handle.write("\n")
            count += 1
    finally:
        if owned:
            handle.close()
    return count


def iter_trace_jsonl(path_or_file: PathOrFile) -> Iterator[TraceEvent]:
    handle, owned = open_jsonl(path_or_file, "r")
    try:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield event_from_dict(json.loads(line))
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"bad trace line {lineno}: {exc}") from exc
    finally:
        if owned:
            handle.close()


def import_trace_jsonl(path_or_file: PathOrFile) -> Trace:
    """Rebuild a :class:`Trace` (with its per-kind index) from JSONL."""
    trace = Trace()
    for event in iter_trace_jsonl(path_or_file):
        trace.record(event.time, event.kind, event.node, **event.detail)
    return trace


def iter_filter_events(
    events: Iterable[TraceEvent],
    kinds: Optional[Iterable[str]] = None,
    nodes: Optional[Iterable[str]] = None,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> Iterator[TraceEvent]:
    """Lazily yield the events matching every given criterion.

    Streaming counterpart of :func:`filter_events`: composes with
    :func:`iter_trace_jsonl` so the CLI filters arbitrarily large
    traces without materializing them.
    """
    kind_set = set(kinds) if kinds else None
    node_set = set(nodes) if nodes else None
    for event in events:
        if kind_set is not None and event.kind not in kind_set:
            continue
        if node_set is not None and event.node not in node_set:
            continue
        if t0 is not None and event.time < t0:
            continue
        if t1 is not None and event.time > t1:
            continue
        yield event


def filter_events(
    events: Iterable[TraceEvent],
    kinds: Optional[Iterable[str]] = None,
    nodes: Optional[Iterable[str]] = None,
    t0: Optional[float] = None,
    t1: Optional[float] = None,
) -> list[TraceEvent]:
    """Subset of ``events`` matching every given criterion."""
    return list(iter_filter_events(events, kinds, nodes, t0, t1))


def summarize_events(events: Iterable[TraceEvent]) -> dict:
    """Aggregate view of a trace: totals, per-kind and per-node counts,
    time range — the ``obs summary`` CLI output."""
    by_kind: dict[str, int] = {}
    by_node: dict[str, int] = {}
    first = None
    last = None
    total = 0
    for event in events:
        total += 1
        by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        by_node[event.node] = by_node.get(event.node, 0) + 1
        if first is None or event.time < first:
            first = event.time
        if last is None or event.time > last:
            last = event.time
    return {
        "events": total,
        "t_first_ms": first,
        "t_last_ms": last,
        "span_ms": (last - first) if total else None,
        "by_kind": dict(sorted(by_kind.items(), key=lambda kv: -kv[1])),
        "by_node": dict(sorted(by_node.items(), key=lambda kv: -kv[1])),
    }
