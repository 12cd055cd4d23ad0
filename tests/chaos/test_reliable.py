"""Reliable control delivery: acks, retransmission, dedup, escalation."""

import numpy as np
import pytest

from repro.chaos.reliable import ReliableControlSender
from repro.core.messages import ControlAck, Sequenced
from repro.sim.engine import Engine
from repro.sim.faults import FaultAction, ScriptedFault
from repro.sim.links import ControlChannel, Link
from repro.sim.network import Network
from repro.sim.node import Node


class Order:
    """Minimal controller->switch message with a target."""

    def __init__(self, target, body):
        self.target = target
        self.body = body

    def __repr__(self):
        return f"Order({self.target}, {self.body})"


class AckingSwitch(Node):
    """Acks every Sequenced envelope; records deduplicated payloads."""

    def __init__(self, name):
        super().__init__(name)
        self.delivered = []
        self.seen = set()

    def handle_control(self, message):
        if isinstance(message, Sequenced):
            self.send_control(ControlAck(seq=message.seq, reporter=self.name))
            if message.seq in self.seen:
                return
            self.seen.add(message.seq)
            self.delivered.append((self.now, message.inner))


class ControllerNode(Node):
    def __init__(self, name):
        super().__init__(name)
        self.exhausted_messages = []
        self.reliable = None

    def handle_control(self, message):
        if isinstance(message, ControlAck) and self.reliable is not None:
            self.reliable.ack(message.seq)


def build(latency=1.0, **sender_kwargs):
    net = Network(Engine())
    ctrl = net.add_node(ControllerNode("ctrl"))
    sw = net.add_node(AckingSwitch("sw"))
    net.add_link(Link("ctrl", 1, "sw", 1, latency_ms=10.0))
    net.set_controller("ctrl")
    net.add_control_channel(ControlChannel("sw", latency_ms=latency))
    ctrl.reliable = ReliableControlSender(
        ctrl,
        rng=np.random.default_rng(0),
        on_exhausted=ctrl.exhausted_messages.append,
        **sender_kwargs,
    )
    return net, ctrl, sw


def test_ack_stops_retransmission():
    net, ctrl, sw = build(timeout_ms=50.0)
    ctrl.reliable.send(Order("sw", "install"))
    net.engine.run()
    assert len(sw.delivered) == 1
    assert ctrl.reliable.retransmissions == 0
    assert ctrl.reliable.outstanding == 0


def test_lost_message_is_retransmitted_until_delivered():
    net, ctrl, sw = build(timeout_ms=50.0, jitter_ms=0.0)
    # Drop the first two transmissions of the envelope.
    net.control_fault_model = ScriptedFault(
        matches=lambda m: isinstance(m, Sequenced),
        action=FaultAction.DROP,
        max_hits=2,
    )
    ctrl.reliable.send(Order("sw", "install"))
    net.engine.run()
    assert [body.body for _, body in sw.delivered] == ["install"]
    assert ctrl.reliable.retransmissions == 2
    assert ctrl.reliable.outstanding == 0
    # Exponential backoff: attempt 3 went out at 50 + 100 = 150 ms.
    assert sw.delivered[0][0] == pytest.approx(151.0)


def test_receiver_dedup_suppresses_duplicate_deliveries():
    net, ctrl, sw = build(timeout_ms=50.0, jitter_ms=0.0)
    # Acks are lost, so the sender keeps retransmitting; the receiver
    # must apply the order exactly once.
    net.control_fault_model = ScriptedFault(
        matches=lambda m: isinstance(m, ControlAck),
        action=FaultAction.DROP,
        max_hits=3,
    )
    ctrl.reliable.send(Order("sw", "install"))
    net.engine.run()
    assert len(sw.delivered) == 1
    assert ctrl.reliable.retransmissions == 3
    assert len(sw.seen) == 1


def test_exhaustion_escalates_to_callback():
    net, ctrl, sw = build(timeout_ms=10.0, jitter_ms=0.0, max_retries=3)
    net.control_fault_model = ScriptedFault(
        matches=lambda m: isinstance(m, Sequenced), action=FaultAction.DROP
    )
    order = Order("sw", "install")
    ctrl.reliable.send(order)
    net.engine.run()
    assert ctrl.exhausted_messages == [order]
    assert ctrl.reliable.exhausted == 1
    assert ctrl.reliable.retransmissions == 3   # budget fully spent first
    assert ctrl.reliable.outstanding == 0


def test_cancel_target_abandons_outstanding_sends():
    net, ctrl, sw = build(timeout_ms=10.0, jitter_ms=0.0)
    net.control_fault_model = ScriptedFault(matches=lambda m: True, action=FaultAction.DROP)
    ctrl.reliable.send(Order("sw", "one"))
    ctrl.reliable.send(Order("sw", "two"))
    assert ctrl.reliable.outstanding == 2
    ctrl.reliable.cancel_target("sw")
    assert ctrl.reliable.outstanding == 0
    net.engine.run()
    assert ctrl.exhausted_messages == []        # no escalation after cancel


def test_send_requires_target():
    net, ctrl, sw = build()
    with pytest.raises(ValueError):
        ctrl.reliable.send("bare string")


def test_sequence_numbers_are_unique_and_ordered():
    net, ctrl, sw = build()
    seqs = [ctrl.reliable.send(Order("sw", i)) for i in range(5)]
    assert seqs == [1, 2, 3, 4, 5]
    net.engine.run()
    assert [body.body for _, body in sw.delivered] == [0, 1, 2, 3, 4]


def test_retry_schedule_is_seed_deterministic():
    def timings(seed):
        net, ctrl, sw = build(timeout_ms=20.0, jitter_ms=5.0)
        ctrl.reliable.rng = np.random.default_rng(seed)
        net.control_fault_model = ScriptedFault(
            matches=lambda m: isinstance(m, Sequenced),
            action=FaultAction.DROP,
            max_hits=2,
        )
        ctrl.reliable.send(Order("sw", "x"))
        net.engine.run()
        return [t for t, _ in sw.delivered]

    assert timings(7) == timings(7)
    assert timings(7) != timings(8)   # jitter actually draws from the rng
