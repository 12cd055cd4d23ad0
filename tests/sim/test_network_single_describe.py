"""A message's trace tag and type are worked out once and travel with
it; what the trace must say is what describing it at both ends said,
and what the metrics must count is what the network counted inline,
both kept verbatim in ``tests/sim/reference_network.py``.

Every scenario of ``tests/reference_scenarios.py`` runs on the shipped
``Network`` and again with the reference bodies swapped in.  With the
``type`` key taken out of every ``msg_*`` record (the reference records
none), it must produce the same trace event by event and the same final
state; with metrics on, the trace view's ``messages_*`` counts must
equal the reference's inline ones.
"""

import pytest

from repro.chaos.runner import trace_signature
from repro.obs import derived as derived_module
from repro.obs import make_obs
from repro.serve.service import ServiceSession, run_service
from repro.serve.spec import load_serve_spec
from repro.sim import network as network_module
from repro.sim.network import Network
from repro.sim.trace import KIND_MSG_DROP, KIND_MSG_RECV, KIND_MSG_SEND
from tests.reference_scenarios import (
    SCENARIOS,
    assert_same_outcome,
    stock_outcome,
    swap_bodies,
)
from tests.sim.reference_network import ReferenceNetwork

_MESSAGE_KINDS = (KIND_MSG_SEND, KIND_MSG_RECV, KIND_MSG_DROP)
_MESSAGE_METRICS = (
    "messages_sent", "messages_received", "messages_dropped", "messages_lost_to_failure",
)
_DATA_PLANE_TYPES = {"unm", "probe", "cleanup", "packet"}


def _untyped(outcome):
    """``outcome`` with ``type`` taken out of every ``msg_*`` record of
    every trace in it, after checking each record names one, and its
    trace signature (if any) re-signed over what is left."""
    out = dict(outcome)
    for key, value in outcome.items():
        if key == "trace":
            out[key] = [_untyped_event(event) for event in value]
        elif isinstance(value, dict) and "trace" in value:
            out[key] = _untyped(value)
    if "trace_sig" in out:
        out["trace_sig"] = trace_signature(out["trace"])
    return out


def _untyped_event(event):
    if event.kind not in _MESSAGE_KINDS:
        assert "type" not in event.detail, event
        return event
    detail = dict(event.detail)
    message_type = detail.pop("type")
    class_name = message_type.isidentifier() and message_type[0].isupper()
    if event.kind == KIND_MSG_DROP:          # a failure drop records no plane
        assert message_type in _DATA_PLANE_TYPES or class_name, event
    elif "port" in detail:
        assert message_type in _DATA_PLANE_TYPES, event
    else:
        assert class_name, event
    return event._replace(detail=detail)


class _NoView:
    """Stands in for ``DerivedMetrics``: subscribed to no kind."""

    routes: dict = {}

    def __init__(self, metrics) -> None:
        pass


def _message_rows(obs):
    return [
        (name, labels, cell.value)
        for name, labels, cell in obs.metrics if name in _MESSAGE_METRICS
    ]


SPEC = {
    "name": "tags", "topology": "b4", "seed": 0, "flows": 8, "requests": 50,
    "arrival_rate_per_s": 3.0, "queue_depth": 16, "shed_policy": "park",
    "conflict_policy": "serialize", "horizon_ms": 1.0e9,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_one_describe_per_flight_matches_the_describe_twice_reference(name, monkeypatch):
    got = _untyped(stock_outcome(name))
    swap_bodies(monkeypatch, Network, ReferenceNetwork)
    assert_same_outcome(got, SCENARIOS[name]())


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_view_counts_what_the_reference_counted_inline(name, monkeypatch):
    viewed = make_obs()
    SCENARIOS[name](viewed)
    swap_bodies(monkeypatch, Network, ReferenceNetwork)
    monkeypatch.setattr(derived_module, "DerivedMetrics", _NoView)
    inline = make_obs()
    SCENARIOS[name](inline)
    rows = _message_rows(viewed)
    assert rows == _message_rows(inline)          # same counts, same order
    dropped = {labels["plane"] for metric, labels, _ in rows if metric == "messages_dropped"}
    if name.startswith("faults_"):
        assert dropped == {"data", "control"}
    lost = {labels["reason"] for metric, labels, _ in rows if metric == "messages_lost_to_failure"}
    if name == "serve_chaos_closed":
        assert {"link_down", "controller_outage"} <= lost
    assert {metric for metric, _, _ in rows} >= {"messages_sent", "messages_received"}


def test_a_fault_free_message_is_described_once(monkeypatch):
    described = []
    plain = network_module.describe
    monkeypatch.setattr(
        network_module, "describe",
        lambda message: described.append(message) or plain(message),
    )
    sent = []
    for name in ("transmit", "transmit_control"):
        body = getattr(Network, name)
        monkeypatch.setattr(
            Network, name,
            lambda self, *args, _body=body: sent.append(args) or _body(self, *args),
        )
    result = run_service(load_serve_spec(SPEC))
    assert result.completed == 50
    assert len(sent) > 50 * 8 and len(described) == len(sent)
    network = Network()                            # one shared no-fault decision
    assert network._fault_decision(None, "a") is network._fault_decision(None, "b")


def test_a_session_pickled_with_messages_in_flight_resumes_identically():
    spec = load_serve_spec(dict(SPEC, arrival_rate_per_s=40.0))
    want = run_service(spec).trace_sig

    session = ServiceSession(spec)
    session.wire()
    network = session.deployment.network

    def in_flight():
        queued = {
            event.callback.__name__
            for _, _, event in network.engine._queue if not event.cancelled
        }
        return {"_deliver", "_deliver_control", "_enqueue_at_controller"} <= queued

    while not in_flight():
        assert network.engine.step()
    for _, _, event in network.engine._queue:
        if event.callback.__name__ == "_deliver":
            assert event.args[3] == event.args[2].describe()    # the tag rides along
            assert event.args[4] == network_module.message_type(event.args[2])
    session.run()
    assert session.close().trace_sig == want
