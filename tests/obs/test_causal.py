"""Unit tests for per-request causal tracing (repro.obs.causal).

The tracker is a trace subscriber, so each case feeds it the records a
serve run writes (:func:`_ev`), in order.
"""

import gzip
import io
import json
import math

from repro.obs.causal import (
    SEGMENTS,
    CausalTracker,
    critical_path,
    iter_causal_jsonl,
    perfetto_trace,
    summarize_attribution,
    write_causal_jsonl,
)
from repro.obs.registry import nearest_rank
from repro.sim.trace import TraceEvent

_ORCH = "orchestrator"


def _ev(t, kind, node=_ORCH, **detail):
    return TraceEvent(t, kind, node, detail)


def _fed(*events):
    tracker = CausalTracker()
    for event in events:
        tracker(event)
    return tracker


def _sum_invariant(row):
    return abs(sum(row["segments"].values()) - row["e2e_ms"])


def happy_path_tracker() -> CausalTracker:
    """submit -> admit -> dispatch -> push -> verify -> done."""
    return _fed(
        _ev(10.0, "request_submitted", request=0, flow=7),
        _ev(12.0, "request_admitted", request=0, queue_depth=1),
        _ev(15.0, "request_dispatched", request=0, flow=7),
        _ev(20.0, "request_pushed", "controller", request=0, version=2),
        _ev(24.0, "rule_change", "s1", flow=7),
        _ev(27.0, "verify_ok", "s2", flow=7),
        _ev(30.0, "update_done", "controller", flow=7),
        _ev(30.0, "request_done", request=0, flow=7, outcome="completed"),
    )


def test_segments_schema_is_fixed():
    assert SEGMENTS == (
        "queue_wait", "conflict_wait", "prepare", "control_rtt",
        "retry_backoff", "dataplane_verify", "recovery",
    )


def test_happy_path_attribution():
    [row] = happy_path_tracker().attribution_rows()
    assert row["request_id"] == 0
    assert row["flow_id"] == 7
    assert row["outcome"] == "completed"
    assert row["e2e_ms"] == 20.0
    assert row["segments"]["queue_wait"] == 5.0       # 10 -> 15
    assert row["segments"]["prepare"] == 5.0          # 15 -> 20
    assert row["segments"]["control_rtt"] == 7.0      # 20->24 rtt, 27->30 ufm
    assert row["segments"]["dataplane_verify"] == 3.0  # 24 -> 27
    assert _sum_invariant(row) == 0.0


def test_wait_reclassification_splits_queue_and_conflict():
    tracker = _fed(
        _ev(0.0, "request_submitted", request=0, flow=7),
        _ev(4.0, "request_wait", request=0, to="conflict_wait"),  # blocked
        _ev(9.0, "request_wait", request=0, to="queue_wait"),  # tokens dry
        _ev(10.0, "request_dispatched", request=0, flow=7),
        _ev(10.0, "request_done", request=0, flow=7, outcome="completed"),
    )
    [row] = tracker.attribution_rows()
    assert row["segments"]["queue_wait"] == 5.0      # 0-4 + 9-10
    assert row["segments"]["conflict_wait"] == 5.0   # 4-9
    assert _sum_invariant(row) == 0.0


def _pushed_at_5():
    """A request submitted at 0, dispatched and pushed at 5."""
    return (
        _ev(0.0, "request_submitted", request=0, flow=7),
        _ev(5.0, "request_dispatched", request=0, flow=7),
        _ev(5.0, "request_pushed", "controller", request=0, version=1),
    )


def test_retry_closes_gap_as_retry_backoff():
    tracker = _fed(
        *_pushed_at_5(),
        _ev(85.0, "retransmit", "controller", flow=7, target="s1", attempt=2),
        _ev(90.0, "update_done", "controller", flow=7),
        _ev(90.0, "request_done", request=0, flow=7, outcome="completed"),
    )
    [row] = tracker.attribution_rows()
    assert row["segments"]["queue_wait"] == 5.0      # submit -> push
    assert row["segments"]["retry_backoff"] == 80.0  # push -> retransmit
    assert row["segments"]["control_rtt"] == 5.0     # resend travel + ufm
    assert _sum_invariant(row) == 0.0
    [dag] = tracker.dags()
    retransmit = dag["events"][3]
    assert retransmit == {"id": 3, "t": 85.0, "kind": "retransmit",
                          "node": "controller", "target": "s1", "attempt": 2}


def test_a_retrigger_is_a_retry():
    tracker = _fed(
        *_pushed_at_5(),
        _ev(9.0, "rule_change", "s1", flow=7),
        _ev(2009.0, "retrigger", "controller", flow=7, version=1),
        _ev(2015.0, "update_done", "controller", flow=7),
        _ev(2015.0, "request_done", request=0, flow=7, outcome="completed"),
    )
    [row] = tracker.attribution_rows()
    assert row["segments"]["retry_backoff"] == 2000.0  # install -> retrigger
    assert row["segments"]["control_rtt"] == 10.0      # 5-9 + 2009-2015
    retrigger = tracker.dags()[0]["events"][4]
    assert (retrigger["kind"], retrigger["version"]) == ("retrigger", 1)


def test_pre_push_flow_events_are_ignored():
    tracker = _fed(
        _ev(0.0, "request_submitted", request=0, flow=7),
        _ev(0.0, "request_dispatched", request=0, flow=7),
        _ev(2.0, "rule_change", "s1", flow=7),   # recovery write, not ours
        _ev(3.0, "retransmit", "controller", flow=7, target="s1", attempt=2),
    )
    [dag] = tracker.dags()
    assert [e["kind"] for e in dag["events"]] == ["submitted", "dispatched"]


def test_unbound_flow_events_are_ignored():
    tracker = _fed(
        _ev(0.0, "request_submitted", request=0, flow=7),
        _ev(2.0, "rule_change", "s1", flow=99),
        _ev(3.0, "retransmit", "controller", flow=99, target="s1", attempt=2),
        _ev(4.0, "retransmit", "controller", target="s1", attempt=2),
    )
    [dag] = tracker.dags()
    assert len(dag["events"]) == 1


def test_a_done_or_requeued_request_unbinds_only_its_own_flow():
    tracker = _fed(
        *_pushed_at_5(),
        _ev(6.0, "request_submitted", request=1, flow=7),
        _ev(7.0, "request_done", request=1, flow=7, outcome="merged"),
        _ev(8.0, "rule_change", "s1", flow=7),     # still request 0's
        _ev(9.0, "request_requeued", request=0),
        _ev(10.0, "rule_change", "s1", flow=7),    # nobody's
    )
    dag = tracker.dags()[0]
    assert [e["kind"] for e in dag["events"]] == [
        "submitted", "dispatched", "pushed", "rule_change", "requeued",
    ]
    assert dag["edges"][-1]["segment"] == "dataplane_verify"


def test_abort_tail_lands_in_recovery():
    tracker = _fed(
        *_pushed_at_5(),
        _ev(8.0, "update_aborted", "controller", flow=7),
        _ev(12.0, "request_done", request=0, flow=7, outcome="aborted"),
    )
    [row] = tracker.attribution_rows()
    assert row["outcome"] == "aborted"
    assert row["segments"]["queue_wait"] == 5.0      # submit -> push
    assert row["segments"]["control_rtt"] == 3.0     # push -> abort in flight
    assert row["segments"]["recovery"] == 4.0        # abort -> done
    assert _sum_invariant(row) == 0.0


def test_events_after_finish_are_dropped():
    tracker = happy_path_tracker()
    for event in (
        _ev(99.0, "request_admitted", request=0, queue_depth=0),
        _ev(99.0, "request_wait", request=0, to="recovery"),
        _ev(99.0, "request_done", request=0, flow=7, outcome="aborted"),
    ):
        tracker(event)
    [row] = tracker.attribution_rows()
    assert row["outcome"] == "completed"
    assert row["e2e_ms"] == 20.0


def test_sum_invariant_under_awkward_floats():
    """Fraction accumulation keeps the telescoping exact even for
    timestamps with no short binary representation."""
    t = 0.1
    events = [_ev(t, "request_submitted", request=0, flow=7)]
    for i in range(500):
        t += 0.1 * (i % 7 + 1) / 3.0
        events.append(_ev(t, "request_wait", request=0, to=SEGMENTS[i % len(SEGMENTS)]))
    events.append(_ev(t + 1e-7, "request_done", request=0, flow=7, outcome="completed"))
    tracker = _fed(*events)
    [row] = tracker.attribution_rows()
    assert _sum_invariant(row) <= 1e-9


def test_critical_path_covers_end_to_end():
    [dag] = happy_path_tracker().dags()
    report = critical_path(dag)
    assert report["steps"][0]["from"] == "submitted"
    assert report["steps"][-1]["to"] == "done"
    # Steps chain with no gaps, so their durations telescope to e2e.
    assert math.isclose(
        sum(s["dur_ms"] for s in report["steps"]), dag["e2e_ms"]
    )
    for a, b in zip(report["steps"], report["steps"][1:]):
        assert a["t1"] == b["t0"]
    assert report["segment_totals"]["dataplane_verify"] == 3.0


def test_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert nearest_rank(values, 50) == 50.0
    assert nearest_rank(values, 90) == 90.0
    assert nearest_rank(values, 99) == 99.0
    assert nearest_rank([5.0], 99) == 5.0
    assert nearest_rank([], 50) is None


def test_summarize_attribution():
    rows = happy_path_tracker().attribution_rows()
    summary = summarize_attribution(rows)
    assert summary["requests"] == 1
    assert summary["e2e_ms"]["p50"] == 20.0
    assert summary["segments"]["prepare"]["total"] == 5.0
    assert set(summary["segments"]) == set(SEGMENTS)
    assert summary["residual_max_ms"] <= 1e-9


def test_summarize_attribution_empty():
    summary = summarize_attribution([])
    assert summary["requests"] == 0
    assert summary["e2e_ms"]["p50"] is None
    assert summary["residual_max_ms"] == 0.0


def test_perfetto_trace_structure():
    dags = happy_path_tracker().dags()
    doc = perfetto_trace(dags)
    assert doc["displayTimeUnit"] == "ms"
    events = doc["traceEvents"]
    slices = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    meta = [e for e in events if e["ph"] == "M"]
    # Zero-duration edges are skipped; all others become slices.
    positive = [e for e in dags[0]["edges"] if e["dur_ms"] > 0.0]
    assert len(slices) == len(positive)
    assert len(instants) == len(dags[0]["events"])
    assert any(m["name"] == "thread_name" for m in meta)
    # Simulated ms -> trace microseconds.
    assert slices[0]["ts"] == dags[0]["events"][0]["t"] * 1000.0
    assert json.dumps(doc)  # strictly JSON-serializable


def test_causal_jsonl_round_trip():
    dags = happy_path_tracker().dags()
    buffer = io.StringIO()
    assert write_causal_jsonl(dags, buffer) == 1
    buffer.seek(0)
    assert list(iter_causal_jsonl(buffer)) == dags


def test_causal_jsonl_gzip_round_trip(tmp_path):
    dags = happy_path_tracker().dags()
    path = str(tmp_path / "trace.causal.jsonl.gz")
    assert write_causal_jsonl(dags, path) == 1
    with gzip.open(path, "rt", encoding="utf-8") as handle:
        assert json.loads(handle.readline())["request_id"] == 0
    assert list(iter_causal_jsonl(path)) == dags
