"""Unit tests for fault injection."""

import numpy as np

from repro.sim.engine import Engine
from repro.sim.faults import (
    CompositeFaultModel,
    FaultAction,
    FaultModel,
    ScriptedFault,
)
from repro.sim.links import Link
from repro.sim.network import Network
from repro.sim.node import Node


class Sink(Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def handle_message(self, message):
        self.received.append((self.now, message))


def wired_pair():
    net = Network(Engine())
    a = net.add_node(Sink("a"))
    b = net.add_node(Sink("b"))
    net.add_link(Link("a", 1, "b", 1, latency_ms=1.0))
    return net, a, b


def test_default_model_delivers_everything():
    model = FaultModel(rng=np.random.default_rng(0))
    decision = model.decide("msg")
    assert decision.action is FaultAction.DELIVER


def test_drop_all():
    net, a, b = wired_pair()
    net.fault_model = FaultModel(rng=np.random.default_rng(0), drop_prob=1.0)
    a.send(1, "gone")
    net.engine.run()
    assert b.received == []
    assert net.fault_model.dropped == 1


def test_delay_adds_extra_latency():
    net, a, b = wired_pair()
    net.fault_model = FaultModel(
        rng=np.random.default_rng(0), delay_prob=1.0, delay_ms=50.0
    )
    a.send(1, "slow")
    net.engine.run()
    assert b.received == [(51.0, "slow")]


def test_duplicate_delivers_twice():
    net, a, b = wired_pair()
    net.fault_model = FaultModel(rng=np.random.default_rng(0), duplicate_prob=1.0)
    a.send(1, "twin")
    net.engine.run()
    assert len(b.received) == 2


def test_corrupt_uses_mutator_on_a_copy():
    net, a, b = wired_pair()
    original = {"value": 1}

    def flip(msg):
        msg["value"] = 999
        return msg

    net.fault_model = FaultModel(
        rng=np.random.default_rng(0), corrupt_prob=1.0, corruptor=flip
    )
    a.send(1, original)
    net.engine.run()
    assert b.received[0][1] == {"value": 999}
    assert original == {"value": 1}, "sender's copy must be untouched"


def test_selector_scopes_faults():
    model = FaultModel(
        rng=np.random.default_rng(0),
        drop_prob=1.0,
        selector=lambda m: m == "victim",
    )
    assert model.decide("bystander").action is FaultAction.DELIVER
    assert model.decide("victim").action is FaultAction.DROP


def test_scripted_fault_max_hits():
    fault = ScriptedFault(
        matches=lambda m: True, action=FaultAction.DROP, max_hits=2
    )
    assert fault.decide("a").action is FaultAction.DROP
    assert fault.decide("b").action is FaultAction.DROP
    assert fault.decide("c").action is FaultAction.DELIVER


def test_composite_first_match_wins():
    model = CompositeFaultModel([
        ScriptedFault(matches=lambda m: m == "x", action=FaultAction.DROP),
        ScriptedFault(
            matches=lambda m: True, action=FaultAction.DELAY, extra_delay_ms=9.0
        ),
    ])
    assert model.decide("x").action is FaultAction.DROP
    decision = model.decide("y")
    assert decision.action is FaultAction.DELAY
    assert decision.extra_delay_ms == 9.0


def test_fault_probability_is_seed_deterministic():
    counts = []
    for _ in range(2):
        model = FaultModel(rng=np.random.default_rng(42), drop_prob=0.5)
        outcome = [model.decide(i).action for i in range(100)]
        counts.append(outcome)
    assert counts[0] == counts[1]


# -- FaultPolicy protocol + metrics export ----------------------------------


def test_fault_counters_track_actions():
    model = FaultModel(rng=np.random.default_rng(3), drop_prob=1.0)
    for i in range(5):
        model.decide(i)
    assert model.dropped == 5
    assert model.corrupted == model.duplicated == model.delayed == 0


def test_attach_metrics_rebinds_counters_into_registry():
    from repro.obs.registry import MetricsRegistry

    model = FaultModel(rng=np.random.default_rng(3), drop_prob=1.0)
    for i in range(4):
        model.decide(i)                        # counted before attach
    registry = MetricsRegistry()
    model.attach_metrics(registry, plane="data")
    for i in range(2):
        model.decide(i)                        # counted after attach
    assert model.dropped == 6                  # nothing lost in the rebind
    assert registry.value("fault_injections", plane="data", action="dropped") == 6
    assert registry.value("fault_injections", plane="data", action="delayed") == 0


def test_composite_attach_metrics_propagates_to_members():
    from repro.obs.registry import MetricsRegistry

    drops = FaultModel(rng=np.random.default_rng(0), drop_prob=1.0)
    dups = FaultModel(rng=np.random.default_rng(1), duplicate_prob=1.0)
    composite = CompositeFaultModel([drops, ScriptedFault(
        matches=lambda m: False, action=FaultAction.DROP,
    ), dups])
    registry = MetricsRegistry()
    composite.attach_metrics(registry, plane="control")
    composite.decide("x")                      # drops wins first
    drops.drop_prob = 0.0
    composite.decide("y")                      # falls through to dups
    assert registry.value(
        "fault_injections", plane="control", action="dropped"
    ) == 1
    assert registry.value(
        "fault_injections", plane="control", action="duplicated"
    ) == 1


def test_network_binds_fault_metrics_when_observed():
    from repro.obs.context import make_obs

    obs = make_obs()
    net = Network(Engine(), obs=obs)
    a = net.add_node(Sink("a"))
    net.add_node(Sink("b"))
    net.add_link(Link("a", 1, "b", 1, latency_ms=1.0))
    net.fault_model = FaultModel(rng=np.random.default_rng(0), drop_prob=1.0)
    a.send(1, "doomed")
    net.engine.run()
    assert obs.metrics.value(
        "fault_injections", plane="data", action="dropped"
    ) == 1
