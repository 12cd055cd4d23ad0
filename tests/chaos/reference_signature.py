"""The trace signature formats, spelled out — the references.

``reference_trace_signature_v1`` holds, verbatim, the one-f-string body
that defined format v1 (``docs/ARCHITECTURE.md``).  No shipped code
signs with it any more; ``test_signature_v2.py`` keeps it to show that
format v2 tells apart every pair of traces v1 tells apart.

``v2_bytes`` writes what format v2 hashes with one plain loop per
column, ``reference_trace_signature`` hashes it, and ``decode_v2`` reads
those bytes back into the trace's rows.  ``test_signature_shapes.py``
holds the shipped ``trace_signature`` equal to the reference.
"""

from __future__ import annotations

import hashlib
import io
import marshal
from typing import Any, Iterable

from repro.sim.trace import Trace, TraceEvent

BLOCK = 1024


def reference_trace_signature_v1(trace: Trace) -> str:
    """SHA-256 over the formatted event trace (determinism probe)."""
    digest = hashlib.sha256()
    for event in trace:
        line = (
            f"{event.time!r}|{event.kind}|{event.node}|"
            f"{sorted(event.detail.items())!r}\n"
        )
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()


def v2_bytes(trace: Iterable[TraceEvent]) -> bytes:
    """Per block of up to ``BLOCK`` events in trace order, the tuple of
    its four columns ``(times, kinds, nodes, details)`` in ``marshal``
    version 2, the blocks concatenated."""
    events = list(trace)
    out = bytearray()
    for start in range(0, len(events), BLOCK):
        block = events[start:start + BLOCK]
        columns = (
            tuple(event.time for event in block),
            tuple(event.kind for event in block),
            tuple(event.node for event in block),
            tuple(event.detail for event in block),
        )
        out += marshal.dumps(columns, 2)
    return bytes(out)


def reference_trace_signature(trace: Iterable[TraceEvent]) -> str:
    return hashlib.sha256(v2_bytes(trace)).hexdigest()


def decode_v2(blob: bytes) -> list[tuple[Any, ...]]:
    """The rows ``(time, kind, node, detail)`` that ``blob`` holds:
    every block is one self-delimiting ``marshal`` object, so the bytes
    name the rows and nothing else."""
    stream = io.BytesIO(blob)
    rows: list[tuple[Any, ...]] = []
    while stream.tell() < len(blob):
        rows.extend(zip(*marshal.load(stream)))
    return rows
