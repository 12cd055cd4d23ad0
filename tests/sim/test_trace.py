"""Unit tests for the trace log."""

import tracemalloc

import pytest

from repro.sim.trace import (
    KIND_MSG_SEND,
    KIND_RULE_CHANGE,
    Trace,
    TraceEvent,
)
from tests.chaos.reference_signature import BLOCK


def sample_trace():
    trace = Trace()
    trace.record(1.0, KIND_RULE_CHANGE, "a", flow=1)
    trace.record(2.0, KIND_MSG_SEND, "a", message="UIM(x)")
    trace.record(3.0, KIND_RULE_CHANGE, "b", flow=2)
    trace.record(4.0, KIND_MSG_SEND, "b", message="UNM(y)")
    return trace


def test_record_and_len():
    trace = sample_trace()
    assert len(trace) == 4
    assert isinstance(trace.events[0], TraceEvent)


def test_subscribe_receives_future_events():
    trace = Trace()
    seen = []
    trace.subscribe(seen.append)
    trace.record(1.0, "x", "n")
    assert len(seen) == 1 and seen[0].kind == "x"


def test_unsubscribe_stops_notifications():
    trace = Trace()
    seen = []
    trace.subscribe(seen.append)
    trace.record(1.0, "x", "n")
    assert trace.unsubscribe(seen.append) is True
    trace.record(2.0, "x", "n")
    assert len(seen) == 1


def test_unsubscribe_unknown_callback_is_harmless():
    trace = Trace()
    assert trace.unsubscribe(lambda e: None) is False


def test_unsubscribe_removes_one_registration_per_call():
    trace = Trace()
    seen = []
    trace.subscribe(seen.append)
    trace.subscribe(seen.append)
    trace.unsubscribe(seen.append)
    trace.record(1.0, "x", "n")
    assert len(seen) == 1


# -- kind-routed subscribers --------------------------------------------------


class Recorder:
    """A subscriber object; ``tag`` tells registrations apart."""

    def __init__(self, log, tag):
        self.log = log
        self.tag = tag

    def __call__(self, event):
        self.log.append((self.tag, event.kind))


class EqualWrapper:
    """Equal to the callback it wraps but not identical to it (what
    the perf ledger hands ``subscribe`` in place of the original)."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, event):
        self.fn(event)

    def __eq__(self, other):
        return self.fn == getattr(other, "fn", other)

    def __hash__(self):
        return hash(self.fn)


def test_kinded_subscriber_sees_exactly_its_kinds():
    trace = Trace()
    seen = []
    trace.subscribe(seen.append, kinds=(KIND_RULE_CHANGE, "link_down"))
    for kind in ("x", KIND_RULE_CHANGE, KIND_MSG_SEND, "link_down", KIND_RULE_CHANGE):
        trace.record(0.0, kind, "n")
    assert [e.kind for e in seen] == [KIND_RULE_CHANGE, "link_down", KIND_RULE_CHANGE]


def test_order_within_a_kind_is_subscription_order():
    trace = Trace()
    log = []
    trace.subscribe(Recorder(log, "rules-1"), kinds=[KIND_RULE_CHANGE])
    trace.subscribe(Recorder(log, "all"))
    trace.subscribe(Recorder(log, "sends"), kinds={KIND_MSG_SEND})
    trace.subscribe(Recorder(log, "rules-2"), kinds=frozenset({KIND_RULE_CHANGE}))
    trace.record(0.0, KIND_RULE_CHANGE, "n")
    trace.record(1.0, KIND_MSG_SEND, "n")
    trace.record(2.0, "other", "n")
    assert log == [
        ("rules-1", KIND_RULE_CHANGE), ("all", KIND_RULE_CHANGE),
        ("rules-2", KIND_RULE_CHANGE),
        ("all", KIND_MSG_SEND), ("sends", KIND_MSG_SEND),
        ("all", "other"),
    ]


def test_subscribing_after_a_kind_was_routed_still_delivers():
    trace = Trace()
    first, second = [], []
    trace.subscribe(first.append, kinds=("x",))
    trace.record(0.0, "x", "n")
    trace.subscribe(second.append, kinds=("x",))
    trace.record(1.0, "x", "n")
    assert len(first) == 2 and len(second) == 1


def test_unsubscribe_removes_one_registration_per_call_in_both_forms():
    trace = Trace()
    seen = []
    trace.subscribe(seen.append, kinds=("x",))
    trace.subscribe(seen.append)
    trace.subscribe(seen.append, kinds=("x",))
    trace.record(0.0, "x", "n")
    assert len(seen) == 3
    assert trace.unsubscribe(seen.append) is True      # the first kinded one
    trace.record(1.0, "x", "n")
    trace.record(1.0, "y", "n")
    assert len(seen) == 3 + 2 + 1
    assert trace.unsubscribe(seen.append) is True      # the unkinded one
    trace.record(2.0, "y", "n")
    trace.record(2.0, "x", "n")
    assert len(seen) == 6 + 1
    assert trace.unsubscribe(seen.append) is True
    assert trace.unsubscribe(seen.append) is False
    trace.record(3.0, "x", "n")
    assert len(seen) == 7


def test_unsubscribe_matches_an_equal_wrapper():
    trace = Trace()
    seen = []
    trace.subscribe(EqualWrapper(seen.append), kinds=("x",))
    trace.record(0.0, "x", "n")
    assert trace.unsubscribe(seen.append) is True
    trace.record(1.0, "x", "n")
    assert len(seen) == 1


def test_ring_buffer_delivers_every_event_to_kinded_subscribers():
    trace = Trace(max_events=2)
    seen = []
    trace.subscribe(seen.append, kinds=("k",))
    for i in range(5):
        trace.record(float(i), "k", "n")
        trace.record(float(i), "other", "n")
    assert [e.time for e in seen] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert len(trace) == 2


def test_iteration_order():
    trace = sample_trace()
    times = [e.time for e in trace]
    assert times == sorted(times)


def test_events_are_immutable():
    event = TraceEvent(1.0, "k", "n", {})
    for field in TraceEvent._fields:
        with pytest.raises(AttributeError):
            setattr(event, field, 2.0)
    with pytest.raises(AttributeError):
        event.extra = 1


def test_event_is_a_value():
    by_keyword = TraceEvent(time=1.0, kind="k", node="n", detail={"flow": 7})
    assert by_keyword == TraceEvent(1.0, "k", "n", {"flow": 7})
    assert by_keyword != TraceEvent(1.0, "k", "n", {"flow": 8})
    assert (by_keyword.time, by_keyword.kind, by_keyword.node) == (1.0, "k", "n")
    assert Trace().record(1.0, "k", "n", flow=7) == by_keyword
    with pytest.raises(TypeError):
        hash(by_keyword)          # the detail dict never was hashable
    with pytest.raises(TypeError):
        TraceEvent(1.0, "k", "n")


# -- bounded retention (max_events ring buffer) -------------------------------


def test_default_trace_is_unbounded():
    trace = Trace()
    for i in range(1000):
        trace.record(float(i), "k", "n")
    assert len(trace) == 1000
    assert trace.dropped_events == 0


def test_ring_buffer_caps_retention_and_counts_drops():
    trace = Trace(max_events=3)
    for i in range(10):
        trace.record(float(i), "k", "n")
    assert len(trace) == 3
    assert trace.dropped_events == 7
    assert [e.time for e in trace.events] == [7.0, 8.0, 9.0]


def test_ring_buffer_subscribers_see_every_event():
    trace = Trace(max_events=2)
    seen = []
    trace.subscribe(seen.append)
    for i in range(5):
        trace.record(float(i), "k", "n")
    assert len(seen) == 5
    assert len(trace) == 2
    assert trace.dropped_events == 3


def test_ring_buffer_bounds_the_kind_index_and_the_pickle():
    """What ``trace_max_events`` bounds is memory (measured as traced
    allocations), not just ``len(trace)``."""
    held = {}
    tracemalloc.start()
    try:
        trace = Trace(max_events=100)
        for i in range(50_000):
            trace.record(float(i), KIND_MSG_SEND if i % 3 else KIND_RULE_CHANGE, "n", i=i)
            if i + 1 in (5_000, 50_000):
                held[i + 1], _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Flat: only the ints grow wider.
    assert abs(held[50_000] - held[5_000]) < 0.1 * held[5_000]
    assert [e.detail["i"] for e in trace.events] == list(range(49_900, 50_000))
    assert (len(trace), trace.dropped_events) == (100, 49_900)


def _rows(count):
    kinds = (KIND_MSG_SEND, KIND_RULE_CHANGE, KIND_MSG_SEND, "link_down")
    return [(float(i), kinds[i % len(kinds)], "n", {"i": i}) for i in range(count)]


@pytest.mark.parametrize("mode", ["kept", "ring", "streamed"])
@pytest.mark.parametrize("count", [0, 5, BLOCK - 1, BLOCK, 2 * BLOCK + 7])
def test_count_of_kind_counts_what_a_linear_scan_sees(mode, count):
    """Kept and ring traces: a scan over the rows each retains.  A
    streamed trace retains only its open block to scan, so its counts
    are those of a scan over every row recorded."""
    rows = _rows(count)
    trace = Trace(max_events=300 if mode == "ring" else 0)
    if mode == "streamed":
        trace.stream()
    for time, kind, node, detail in rows:
        trace.record(time, kind, node, **detail)
    retained = rows if mode == "streamed" else list(trace.events)
    if mode == "ring":
        assert retained == rows[-300:]
    for kind in (KIND_MSG_SEND, KIND_RULE_CHANGE, "link_down", "never_happened"):
        assert trace.count_of_kind(kind) == [row[1] for row in retained].count(kind)
