"""The trace signature as one f-string per event — the reference.

``reference_trace_signature`` holds, verbatim, the body
``repro.chaos.runner.trace_signature`` had before it formatted events
through per-shape templates.  The bytes it hashes *are* signature
format v1 (``docs/ARCHITECTURE.md``); ``test_signature_shapes.py``
holds the shipped body equal to it.
"""

from __future__ import annotations

import hashlib

from repro.sim.trace import Trace


def reference_trace_signature(trace: Trace) -> str:
    """SHA-256 over the formatted event trace (determinism probe)."""
    digest = hashlib.sha256()
    for event in trace:
        line = (
            f"{event.time!r}|{event.kind}|{event.node}|"
            f"{sorted(event.detail.items())!r}\n"
        )
        digest.update(line.encode("utf-8"))
    return digest.hexdigest()
