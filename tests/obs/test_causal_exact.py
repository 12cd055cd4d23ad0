"""``CausalTracker`` attributes in IEEE arithmetic (``t - last_t``,
``math.fsum`` over signed endpoints); the ``Fraction`` accumulation it
replaced lives on in ``reference_causal.py`` and every exported number
must equal it bit for bit."""

import json

from hypothesis import example, given, settings, strategies as st

from repro.obs.causal import SEGMENTS, CausalTracker, summarize_attribution
from repro.serve.service import run_service
from repro.serve.spec import load_serve_spec
from repro.sim.trace import TraceEvent
from tests.obs.reference_causal import ReferenceCausalTracker

#: Gaps between consecutive events: none (repeated times), subnormal,
#: tiny beside the clock, request-sized, horizon-sized.
_WILD_GAPS = st.one_of(
    st.just(0.0),
    st.floats(min_value=5e-324, max_value=2.3e-308),
    st.floats(min_value=1e-300, max_value=1e-9),
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=0.0, max_value=1e9),
)
_REQUEST_GAPS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=500.0))
_STARTS = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=1e3),
    st.floats(min_value=1e8, max_value=1e9),
)


def _events(gaps):
    return st.lists(st.tuples(gaps, st.sampled_from(SEGMENTS)), max_size=24)


def _replay(tracker_class, start, requests):
    """Drive one tracker through every request's event sequence: each
    ``(gap, segment)`` is a ``request_wait`` into ``segment``, so the
    interval after it is charged to ``segment``."""
    tracker = tracker_class()
    for request_id, events in enumerate(requests):
        t = start
        tracker(TraceEvent(t, "request_submitted", "orchestrator",
                           {"request": request_id, "flow": 100 + request_id}))
        for gap, segment in events:
            t += gap                    # may round back onto t: a repeated time
            tracker(TraceEvent(t, "request_wait", "orchestrator",
                               {"request": request_id, "to": segment}))
        tracker(TraceEvent(t, "request_done", "orchestrator",
                           {"request": request_id, "outcome": "completed"}))
    return tracker


def _exports(tracker):
    # json writes floats with repr(): equal text = equal bits, -0.0 included.
    return json.dumps([tracker.dags(), tracker.attribution_rows()])


@given(_STARTS, st.lists(_events(_WILD_GAPS), min_size=1, max_size=3))
@example(0.0, [[(5e-324, "prepare"), (5e-324, "prepare"), (0.0, "recovery")]])
@example(1e9, [[(1.2e-7, "queue_wait"), (0.1, "control_rtt"), (1e9, "prepare")]])
@example(0.1, [[(0.2, "prepare"), (0.3, "prepare"), (0.7, "control_rtt")]])
@settings(max_examples=500, deadline=None)
def test_every_exported_number_equals_the_fraction_reference(start, requests):
    assert _exports(_replay(CausalTracker, start, requests)) == _exports(
        _replay(ReferenceCausalTracker, start, requests)
    )


@given(_STARTS, st.lists(_events(_REQUEST_GAPS), min_size=1, max_size=3))
@settings(max_examples=500, deadline=None)
def test_request_sized_lifetimes_stay_under_the_residual_bound(start, requests):
    """The trace-smoke job's bound: a request's segment totals re-add to
    its ``e2e_ms`` within 1e-9 ms, however late on the clock it lived."""
    tracker = _replay(CausalTracker, start, requests)
    rows = tracker.attribution_rows()
    assert rows == _replay(ReferenceCausalTracker, start, requests).attribution_rows()
    assert summarize_attribution(rows)["residual_max_ms"] < 1e-9


def test_a_traced_service_run_exports_the_reference_bytes(monkeypatch):
    """End to end: swap the reference in under a causal serve run."""
    import repro.obs.causal as causal

    spec = load_serve_spec({
        "name": "exact", "topology": "b4", "seed": 3, "flows": 8,
        "requests": 60, "arrival_rate_per_s": 3.0, "causal": True,
        "conflict_policy": "serialize", "horizon_ms": 1.0e9,
    })
    fast = run_service(spec)
    # run_service imports the tracker class when a spec turns causal on.
    monkeypatch.setattr(causal, "CausalTracker", ReferenceCausalTracker)
    reference = run_service(spec)
    assert len(fast.causal) == 60 and fast.attribution["rows"]
    assert json.dumps(fast.causal) == json.dumps(reference.causal)
    assert json.dumps(fast.attribution) == json.dumps(reference.attribution)
