"""``trace_signature`` hashes signature format v2: each block of up to
1 024 events, transposed into its four columns and marshalled at
version 2.  What it must hash is spelled out with one plain loop per
column in ``tests/chaos/reference_signature.py``.

The shipped body and the reference sign every run of
``tests/reference_scenarios.py``, a ring that has evicted and a
hand-built trace of awkward shapes, and must agree on each.  A call-count guard keeps signing free of
Python-level calls per event, per block and per shape.
"""

import gc

import pytest

from repro.chaos.runner import trace_signature
from repro.harness.prep import count_calls
from repro.sim.trace import Trace
from tests.chaos.reference_signature import BLOCK, reference_trace_signature
from tests.reference_scenarios import SCENARIOS, stock_outcome


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_every_reference_run_signs_as_the_reference(name):
    outcome = stock_outcome(name)
    events = outcome["trace"]
    assert events
    assert trace_signature(events) == reference_trace_signature(events)
    if "trace_sig" in outcome:                  # what a served run reported
        assert outcome["trace_sig"] == reference_trace_signature(events)


def _served_trace(max_events: int = 0) -> Trace:
    trace = Trace(max_events)
    for time, kind, node, detail in stock_outcome("serve_chaos_closed")["trace"]:
        trace.record(time, kind, node, **detail)
    return trace


def test_a_ring_after_eviction_signs_as_the_reference():
    ring = _served_trace(max_events=1000)
    assert ring.dropped_events > 0 and len(ring) == 1000
    assert trace_signature(ring) == reference_trace_signature(ring)
    assert trace_signature(ring) == trace_signature(_served_trace().events[-1000:])


def adversarial() -> Trace:
    trace = Trace()
    zero = -0.0
    awkward = "it's \"quoted\" \\ back\nslash é ∑ 🙂 %s %r {0} |"
    nested = {"d": {"z": 1, "a": [1, (2, None)]}, "f": frozenset({3}), "t": ()}
    trace.record(None, "first", "n")
    trace.record(zero, "signed", "n", value=zero)
    trace.record(zero, "signed", "n", value=0.0)
    trace.record(0.0, "signed", "n", value=zero)
    trace.record(float("nan"), "odd-time", "n", flag=True)
    trace.record(float("inf"), "odd-time", "n", flag=1)
    trace.record(-float("inf"), "odd-time", "n", flag=1.0)
    trace.record(7, "odd-time", "n", flag=None)
    trace.record(7, "empty", "n")
    trace.record(8.5, "k%s|{x}'\"", "node%d|{}", **{
        "a%r": awkward, "b{0}": "'", "c|d": '"', "q'\"": "\\", "x)(": "\n",
    })
    trace.record(8.5, "one", "n", path=("a", "b"))
    trace.record(8.5, "one", "n", path={"a": 1})
    trace.record(8.5, "one", "n", path=[nested])
    trace.record(9.0, "shapes", "n", b=1, a=2)
    trace.record(9.0, "shapes", "n", a=2, b=1)          # same keys, other order
    trace.record(9.0, "shapes", "n", a=2)
    trace.record(9.0, "shapes", "n", a=2, b=1, c=nested)
    trace.record(1e16, "big", "ü", value=1e-5, text=awkward, huge=10**40)
    trace.record(1e16, "bytes", "ü", value=b"\x00\xff", number=3 + 4j)
    return trace


def test_an_adversarial_trace_signs_as_the_reference():
    trace = adversarial()
    assert trace_signature(trace) == reference_trace_signature(trace)
    for position in range(len(trace)):         # and every prefix of it
        prefix = trace.events[:position]
        assert trace_signature(prefix) == reference_trace_signature(prefix)


def test_minus_zero_is_not_reused_for_zero():
    a, b = Trace(), Trace()
    a.record(-0.0, "k", "n")
    a.record(0.0, "k", "n")
    b.record(-0.0, "k", "n")
    b.record(-0.0, "k", "n")
    assert trace_signature(a) == reference_trace_signature(a)
    assert trace_signature(a) != trace_signature(b)


def test_block_boundaries_sign_as_the_reference():
    trace = _served_trace()
    assert len(trace) > 2 * BLOCK
    for cut in (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK):
        events = trace.events[:cut]
        assert trace_signature(events) == reference_trace_signature(events)
    assert trace_signature([]) == reference_trace_signature([])


def test_a_value_of_no_builtin_type_is_refused_by_name():
    class Opaque:
        pass

    trace = Trace()
    trace.record(1.0, "rule_change", "s1", flow=1, next_hop="s2")
    trace.record(2.0, "rule_change", "s2", flow=1, next_hop=Opaque())
    with pytest.raises(TypeError, match="'rule_change' event at 's2', t=2.0"):
        trace_signature(trace)


SHAPES = (
    ("controller_down", {}),
    ("link_up", {"link": "a-b"}),
    ("msg_drop", {"message": "UNM(to=v1)"}),
    ("msg_send", {"dest": "v2", "message": "UIM(to=v2)"}),
    ("rule_change", {"flow": 7, "next_hop": "v3", "port": 2}),
    ("request_done", {"request": 1, "flow": 7, "outcome": "completed"}),
)


def _uniform(events: int) -> Trace:
    trace = Trace()
    for position in range(events):
        kind, detail = SHAPES[position % len(SHAPES)]
        trace.record(position // 3 * 0.5, kind, "v0", **detail)
    return trace


def test_signing_costs_python_calls_per_shape_not_per_event():
    trace, short = _uniform(20_000), _uniform(2_000)
    # A collection inside the count would run earlier tests' finalizers.
    gc.collect()
    gc.disable()
    try:
        calls = count_calls(lambda: trace_signature(trace))
        short_calls = count_calls(lambda: trace_signature(short))
    finally:
        gc.enable()
    # The lambda, trace_signature and Trace.__iter__: nothing per shape,
    # per block or per event.
    assert calls == short_calls == 3, calls
    assert trace_signature(trace) == reference_trace_signature(trace)
