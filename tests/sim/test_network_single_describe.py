"""A message's trace tag and type are worked out once and travel with
it; what the trace must say, and what the metrics must count, is pinned
in ``tests/pinned_scenarios.json``.

The pin was recorded on the bodies ``Network`` had when it described
every message at both ends and counted ``messages_*`` inline, where they
agreed with that reference event by event once the ``type`` key was
taken out of each ``msg_*`` record.  Every scenario of
``tests/reference_scenarios.py`` runs on the shipped ``Network`` and
must reproduce its pinned trace signature and state digest; run again
with metrics on, its ``messages_*`` rows must reproduce the pinned row
digest.  Re-record only for a deliberate behaviour change::

    PYTHONPATH=src python tests/reference_scenarios.py
"""

import json

import pytest

from repro.obs.context import make_obs
from repro.serve.service import ServiceSession, run_service
from repro.serve.spec import load_serve_spec
from repro.sim import network as network_module
from repro.sim.network import Network
from repro.sim.trace import KIND_MSG_DROP, KIND_MSG_RECV, KIND_MSG_SEND
from tests.reference_scenarios import (
    PINNED_PATH,
    SCENARIOS,
    message_rows,
    messages_pin,
    outcome_pin,
    stock_outcome,
)

PINNED = json.loads(PINNED_PATH.read_text())

_MESSAGE_KINDS = (KIND_MSG_SEND, KIND_MSG_RECV, KIND_MSG_DROP)
_DATA_PLANE_TYPES = {"unm", "probe", "cleanup", "packet"}


def _traces(outcome):
    """Every trace in ``outcome``, nested captures included."""
    yield outcome["trace"]
    for value in outcome.values():
        if isinstance(value, dict) and "trace" in value:
            yield from _traces(value)


def _assert_typed(event):
    """A ``msg_*`` record names its message's type, and no other does:
    a data-plane type where it records a ``port``, a class name where it
    does not, either on a failure drop (which records no plane)."""
    if event.kind not in _MESSAGE_KINDS:
        assert "type" not in event.detail, event
        return
    message_type = event.detail["type"]
    class_name = message_type.isidentifier() and message_type[0].isupper()
    if event.kind == KIND_MSG_DROP:
        assert message_type in _DATA_PLANE_TYPES or class_name, event
    elif "port" in event.detail:
        assert message_type in _DATA_PLANE_TYPES, event
    else:
        assert class_name, event


SPEC = {
    "name": "tags", "topology": "b4", "seed": 0, "flows": 8, "requests": 50,
    "arrival_rate_per_s": 3.0, "queue_depth": 16, "shed_policy": "park",
    "conflict_policy": "serialize", "horizon_ms": 1.0e9,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_one_describe_per_flight_matches_the_describe_twice_reference(name):
    outcome = stock_outcome(name)
    for trace in _traces(outcome):
        for event in trace:
            _assert_typed(event)
    if name == "serve_outage_replay":          # the replay order has two to order
        assert outcome["buffered"][0] >= 2
    pinned = PINNED[name]
    assert outcome_pin(name, outcome) == {"trace": pinned["trace"], "state": pinned["state"]}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_the_view_counts_what_the_reference_counted_inline(name):
    viewed = make_obs()
    SCENARIOS[name](viewed)
    rows = message_rows(viewed)
    assert messages_pin(name, rows) == PINNED[name]["messages"]
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


def test_queued_messages_carry_their_tags_and_sign_as_one_shot():
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
