"""A one-shot service run keeps no trace rows, and signs as one that does.

``run_service`` streams its trace (``Trace.stream``) unless the spec
asks for a ring: nothing in a one-shot run reads a past row, so each
1 024-row block of the signature is hashed as it fills and dropped.
What it keeps is counted in rows, not bytes, so the check does not
depend on the host.  A ``ServiceSession`` built directly (ops sessions,
tests) keeps its rows, and a ring spec keeps its ring and signs its
tail.
"""

import pytest

from repro.serve.service import ServiceSession, run_service
from repro.serve.spec import load_serve_spec
from repro.sim.trace import trace_signature
from tests.chaos.reference_signature import BLOCK

#: The spec of the perf ledger's ``serve_b4_8f`` workload.
SPEC = {
    "name": "b4-8f", "topology": "b4", "seed": 0, "mode": "open", "flows": 8,
    "requests": 600, "arrival_rate_per_s": 3.0, "queue_depth": 16,
    "shed_policy": "park", "conflict_policy": "serialize", "horizon_ms": 1.0e9,
}


@pytest.fixture(scope="module")
def kept():
    """The rows and the result of the spec on a session that keeps rows."""
    session = ServiceSession(load_serve_spec(SPEC))
    session.wire()
    session.run()
    result = session.close()
    return session.deployment.network.trace.events, result


def test_a_one_shot_run_keeps_at_most_one_block_of_rows(monkeypatch, kept):
    closed = []
    close = ServiceSession.close

    def closing(session):
        closed.append(session.deployment.network.trace)
        return close(session)

    monkeypatch.setattr(ServiceSession, "close", closing)
    result = run_service(load_serve_spec(SPEC))
    [trace] = closed
    rows, kept_result = kept
    assert len(trace) == len(rows) > 10 * BLOCK
    assert len(trace._events) <= BLOCK and not trace._by_kind
    assert result.trace_dropped == 0
    assert result.trace_sig == kept_result.trace_sig


def test_a_ring_spec_keeps_its_ring_and_signs_its_tail(kept):
    spec = load_serve_spec(dict(SPEC, params={"trace_max_events": 50}))
    result = run_service(spec)
    rows, _ = kept
    assert result.trace_dropped == len(rows) - 50 > 0
    assert result.trace_sig == trace_signature(rows[-50:])
