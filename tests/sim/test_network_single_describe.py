"""A message's trace tag is formatted once and travels with it; what the
trace must say is what describing it at both ends said, kept verbatim
in ``tests/sim/reference_network.py``.

Every scenario of ``tests/reference_scenarios.py`` runs on the shipped
``Network`` and again with the reference bodies swapped in, and must
produce the same trace event by event and the same final state.
"""

import pickle

import pytest

from repro.serve.service import ServiceSession, run_service
from repro.serve.spec import load_serve_spec
from repro.sim import network as network_module
from repro.sim.network import Network
from tests.reference_scenarios import (
    SCENARIOS,
    assert_same_outcome,
    stock_outcome,
    swap_bodies,
)
from tests.sim.reference_network import ReferenceNetwork

SPEC = {
    "name": "tags", "topology": "b4", "seed": 0, "flows": 8, "requests": 50,
    "arrival_rate_per_s": 3.0, "queue_depth": 16, "shed_policy": "park",
    "conflict_policy": "serialize", "horizon_ms": 1.0e9,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_one_describe_per_flight_matches_the_describe_twice_reference(name, monkeypatch):
    got = stock_outcome(name)
    swap_bodies(monkeypatch, Network, ReferenceNetwork)
    assert_same_outcome(got, SCENARIOS[name]())


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
    frozen = pickle.dumps(session)
    session.run()                                  # the original runs on, undisturbed
    assert session.close().trace_sig == want

    thawed = pickle.loads(frozen)
    for _, _, event in thawed.deployment.network.engine._queue:
        if event.callback.__name__ == "_deliver":
            assert event.args[3] == event.args[2].describe()    # the tag rode along
    thawed.run()
    assert thawed.close().trace_sig == want
