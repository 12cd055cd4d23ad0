"""A streamed ``Trace`` signs like one that keeps its rows.

``Trace.stream()`` hashes each full 1 024-row block of the format-v2
signature as it fills and drops its rows; ``Trace.signature()`` then
folds the open block into a copy of the running digest.  The digest is
the one ``trace_signature`` computes over the kept rows: checked here
at every block boundary, for a stream switched on mid-run, and on the
rows of every reference scenario.  ``len`` and ``count_of_kind`` answer
as an unbounded trace would; ``events`` and iteration raise.
"""

import pytest

from repro.serve.service import ServiceSession
from repro.serve.spec import load_serve_spec_file
from repro.sim.trace import Trace, trace_signature
from tests.chaos.reference_signature import BLOCK, reference_trace_signature
from tests.reference_scenarios import SCENARIOS, stock_outcome

CUTS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1)


def _replayed(rows, stream_at=None) -> Trace:
    """``rows`` recorded into a fresh trace, streamed from ``stream_at``."""
    trace = Trace()
    for position, (time, kind, node, detail) in enumerate(rows):
        if position == stream_at:
            trace.stream()
        trace.record(time, kind, node, **detail)
    if stream_at is not None and stream_at >= len(rows):
        trace.stream()
    return trace


def _assert_signs_like_kept(rows, streamed: Trace) -> None:
    kept = _replayed(rows)
    want = reference_trace_signature(rows)
    assert streamed.signature() == kept.signature() == trace_signature(rows) == want
    assert len(streamed) == len(kept) == len(rows)
    for kind in {row[1] for row in rows} | {"never_happened"}:
        assert streamed.count_of_kind(kind) == kept.count_of_kind(kind)


def test_the_stock_outcome_is_long_enough_for_every_cut():
    assert len(stock_outcome("serve_chaos_closed")["trace"]) > max(CUTS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_streamed_from_row_zero_signs_every_cut_like_kept_rows(name):
    rows = stock_outcome(name)["trace"]
    for cut in CUTS:
        if cut <= len(rows):
            _assert_signs_like_kept(rows[:cut], _replayed(rows[:cut], stream_at=0))


@pytest.mark.parametrize("stream_at", [0, 1, 700, BLOCK, BLOCK + 5, 2 * BLOCK + 1, 10**9])
def test_streaming_switched_on_mid_run_signs_like_kept_rows(stream_at):
    rows = stock_outcome("serve_chaos_closed")["trace"]
    _assert_signs_like_kept(rows, _replayed(rows, stream_at=stream_at))


def test_a_session_streamed_mid_run_reports_the_kept_session_signature():
    spec = load_serve_spec_file("examples/serve_smoke.json")
    kept = ServiceSession(spec)
    kept.wire()
    kept.run()
    streamed = ServiceSession(spec)
    streamed.wire()
    streamed.deployment.run(until=6000.0)
    trace = streamed.deployment.network.trace
    assert BLOCK < len(trace)
    trace.stream()
    streamed.run()
    assert len(trace) == len(kept.deployment.network.trace)
    assert streamed.close().trace_sig == kept.close().trace_sig


class Opaque:
    pass


def test_an_unsignable_detail_in_the_open_block_is_refused_when_signed():
    trace = Trace()
    trace.stream()
    trace.record(1.0, "rule_change", "s1", flow=1, next_hop="s2")
    trace.record(2.0, "rule_change", "s2", flow=1, next_hop=Opaque())
    with pytest.raises(TypeError, match="'rule_change' event at 's2', t=2.0"):
        trace.signature()


def test_an_unsignable_detail_is_refused_by_the_record_that_fills_its_block():
    trace = Trace()
    trace.stream()
    trace.record(0.5, "rule_change", "s2", flow=1, next_hop=Opaque())
    for position in range(1, BLOCK - 1):
        trace.record(float(position), "tick", "n")
    with pytest.raises(TypeError, match="'rule_change' event at 's2', t=0.5"):
        trace.record(float(BLOCK), "tick", "n")


@pytest.mark.parametrize("read", [
    lambda trace: list(trace),
    lambda trace: trace.events,
    lambda trace: trace_signature(trace),
], ids=["iter", "events", "trace_signature"])
def test_row_readers_and_pickling_refuse_a_streamed_trace(read):
    trace = Trace()
    trace.record(1.0, "rule_change", "s1", flow=1)
    trace.stream()
    with pytest.raises(RuntimeError, match="streamed"):
        read(trace)


def test_a_ring_cannot_stream_and_stream_is_idempotent():
    with pytest.raises(ValueError, match="ring"):
        Trace(max_events=10).stream()
    trace = _replayed(stock_outcome("serve_chaos_closed")["trace"], stream_at=0)
    before = trace.signature()
    trace.stream()
    assert trace.signature() == before
