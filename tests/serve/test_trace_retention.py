"""One-shot service runs and ops sessions keep no trace rows, and sign
and count as runs that do.

``run_service`` and ``build_session`` stream their trace
(``Trace.stream``): nothing in a one-shot run reads a past row, and an
ops session's checkpoint ticks sign the rows they collect themselves,
so each 1 024-row block of the signature is hashed as it fills and
dropped.  What a trace keeps is counted in rows, not bytes, so the
check does not depend on the host.  A ``ServiceSession`` built directly
(tests) keeps its rows.
"""

import pytest

from repro.ops.session import build_session
from repro.ops.spec import load_session_spec_file
from repro.serve.service import ServiceSession, run_service
from repro.serve.spec import load_serve_spec
from repro.sim.trace import Trace
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
    return list(session.deployment.network.trace), result


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
    assert len(trace._events) <= BLOCK
    assert result.trace_sig == kept_result.trace_sig


def _ops_drain():
    """``examples/ops_drain.json`` run to its horizon: (trace, result)."""
    session = build_session(load_session_spec_file("examples/ops_drain.json"))
    session.run()
    return session.deployment.network.trace, session.finalize()


def test_an_ops_session_keeps_at_most_one_block_and_counts_like_a_kept_one(
    monkeypatch,
):
    streamed, result = _ops_drain()
    monkeypatch.setattr(Trace, "stream", lambda trace: None)
    kept, kept_result = _ops_drain()
    assert len(kept._events) == len(kept) > 2 * BLOCK
    assert len(streamed._events) <= BLOCK
    # What the perf ledger's layer counters read.
    assert (len(streamed), streamed.count_of_kind("rule_change")) == (
        len(kept), kept.count_of_kind("rule_change")
    )
    assert result.trace_sig == kept_result.trace_sig
