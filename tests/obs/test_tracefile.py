"""JSONL trace export/import round-trip, filtering, summaries."""

import io

import pytest

from repro.obs.tracefile import (
    event_from_dict,
    event_to_dict,
    export_trace_jsonl,
    filter_events,
    import_trace_jsonl,
    iter_trace_jsonl,
    summarize_events,
)
from repro.sim.trace import Trace, TraceEvent


def sample_trace() -> Trace:
    trace = Trace()
    trace.record(0.0, "msg_send", "v0", message="UIM(1)", hops=("v0", "v1"))
    trace.record(1.5, "msg_recv", "v1", message="UIM(1)")
    trace.record(2.0, "rule_change", "v1", flow=7, next_hop="v2")
    trace.record(9.25, "update_done", "controller", flow=7)
    return trace


def test_round_trip_through_file(tmp_path):
    trace = sample_trace()
    path = tmp_path / "trace.jsonl"
    count = export_trace_jsonl(trace, str(path))
    assert count == 4
    rebuilt = import_trace_jsonl(str(path))
    assert len(rebuilt) == len(trace)
    # Tuples are normalised to lists pre-export, so a second round trip
    # is byte-identical.
    second = tmp_path / "trace2.jsonl"
    export_trace_jsonl(rebuilt, str(second))
    assert path.read_text() == second.read_text()


@pytest.mark.parametrize("name", ["serve_chaos_closed", "two_phase_commit"])
def test_a_trace_read_back_signs_as_the_trace_written(name):
    from repro.chaos.runner import trace_signature
    from tests.reference_scenarios import stock_outcome

    trace = stock_outcome(name)["trace"]
    buffer = io.StringIO()
    export_trace_jsonl(trace, buffer)
    buffer.seek(0)
    assert trace_signature(import_trace_jsonl(buffer)) == trace_signature(trace)


def test_round_trip_preserves_fields():
    trace = sample_trace()
    buffer = io.StringIO()
    export_trace_jsonl(trace, buffer)
    buffer.seek(0)
    events = list(iter_trace_jsonl(buffer))
    assert [e.time for e in events] == [e.time for e in trace]
    assert [e.kind for e in events] == [e.kind for e in trace]
    assert [e.node for e in events] == [e.node for e in trace]
    assert events[0].detail["hops"] == ["v0", "v1"]
    assert events[2].detail == {"flow": 7, "next_hop": "v2"}


def test_event_dict_round_trip_rebuilds_equal_events():
    trace = sample_trace()
    for event in trace.events[1:]:          # events[0] holds a tuple -> list
        rebuilt = event_from_dict(event_to_dict(event))
        assert type(rebuilt) is TraceEvent
        assert rebuilt == event
    assert event_to_dict(trace.events[2]) == {
        "time": 2.0, "kind": "rule_change", "node": "v1",
        "detail": {"flow": 7, "next_hop": "v2"},
    }


def test_imported_trace_index_works():
    buffer = io.StringIO()
    export_trace_jsonl(sample_trace(), buffer)
    buffer.seek(0)
    rebuilt = import_trace_jsonl(buffer)
    assert rebuilt.count_of_kind("msg_send") == 1
    assert rebuilt.last("update_done").node == "controller"


def test_non_json_detail_values_are_stringified():
    class Opaque:
        def __repr__(self):
            return "Opaque()"

    trace = Trace()
    trace.record(1.0, "k", "n", payload=Opaque())
    doc = event_to_dict(trace.events[0])
    assert doc["detail"]["payload"] == "Opaque()"
    event = event_from_dict(doc)
    assert event.detail["payload"] == "Opaque()"


def test_bad_line_reports_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"time": 1.0, "kind": "k", "node": "n", "detail": {}}\nnot json\n')
    with pytest.raises(ValueError, match="line 2"):
        list(iter_trace_jsonl(str(path)))


def test_filter_by_kind_node_and_window():
    events = sample_trace().events
    assert len(filter_events(events, kinds=["msg_send", "msg_recv"])) == 2
    assert [e.node for e in filter_events(events, nodes=["v1"])] == ["v1", "v1"]
    assert len(filter_events(events, t0=1.0, t1=2.0)) == 2
    combined = filter_events(events, kinds=["rule_change"], nodes=["v1"], t0=0.0)
    assert len(combined) == 1 and combined[0].kind == "rule_change"
    assert filter_events(events) == list(events)


def test_summarize_events():
    report = summarize_events(sample_trace().events)
    assert report["events"] == 4
    assert report["t_first_ms"] == 0.0
    assert report["t_last_ms"] == 9.25
    assert report["span_ms"] == 9.25
    assert report["by_kind"]["msg_send"] == 1
    assert report["by_node"]["v1"] == 2


def test_summarize_empty():
    report = summarize_events([])
    assert report["events"] == 0
    assert report["span_ms"] is None


# -- gzip transparency and streaming ------------------------------------------


def test_gzip_round_trip(tmp_path):
    import gzip

    trace = sample_trace()
    path = tmp_path / "trace.jsonl.gz"
    count = export_trace_jsonl(trace, str(path))
    assert count == 4
    # Really gzipped on disk.
    with gzip.open(str(path), "rt", encoding="utf-8") as handle:
        assert handle.readline().startswith("{")
    events = list(iter_trace_jsonl(str(path)))
    assert [e.time for e in events] == [e.time for e in trace]
    rebuilt = import_trace_jsonl(str(path))
    assert len(rebuilt) == 4


def test_iter_filter_events_is_lazy_and_matches_filter_events():
    from repro.obs.tracefile import iter_filter_events

    events = sample_trace().events
    lazy = iter_filter_events(events, kinds=["msg_send", "msg_recv"])
    assert iter(lazy) is lazy          # generator, not a list
    assert list(lazy) == filter_events(events, kinds=["msg_send", "msg_recv"])
    assert list(
        iter_filter_events(events, nodes=["v1"], t0=1.0, t1=2.0)
    ) == filter_events(events, nodes=["v1"], t0=1.0, t1=2.0)
