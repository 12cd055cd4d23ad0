"""Network-level semantics of topology failure events.

Link failures must lose in-flight messages, crashed nodes must go
silent, controller outages must buffer (not lose) the service queue,
and every failure must be visible in the trace.
"""

import pytest

from repro.sim.engine import Engine
from repro.sim.links import ControlChannel, Link
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.trace import (
    KIND_CONTROLLER_DOWN,
    KIND_CONTROLLER_UP,
    KIND_LINK_DOWN,
    KIND_LINK_UP,
    KIND_MSG_DROP,
    KIND_MSG_RECV,
    KIND_SWITCH_CRASH,
    KIND_SWITCH_RESTART,
)


class Recorder(Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []
        self.control = []
        self.port_events = []

    def handle_message(self, message):
        self.received.append((self.now, message))

    def handle_control(self, message):
        self.control.append((self.now, message))

    def handle_port_status(self, port, up):
        self.port_events.append((self.now, port, up))


class ControlMsg:
    def __init__(self, target, body):
        self.target = target
        self.body = body


def build_pair(latency=10.0):
    net = Network(Engine())
    a = net.add_node(Recorder("a"))
    b = net.add_node(Recorder("b"))
    net.add_link(Link("a", 1, "b", 1, latency_ms=latency))
    return net, a, b


def build_triangle():
    """a - b - c line plus controller channelling to all three."""
    net = Network(Engine())
    nodes = {name: net.add_node(Recorder(name)) for name in ("a", "b", "c")}
    ctrl = net.add_node(Recorder("ctrl"))
    net.add_link(Link("a", 1, "b", 1, latency_ms=1.0))
    net.add_link(Link("b", 2, "c", 1, latency_ms=1.0))
    net.set_controller("ctrl")
    for name in nodes:
        net.add_control_channel(ControlChannel(name, latency_ms=1.0))
    return net, nodes, ctrl


def test_chaos_disarmed_by_default():
    net, a, b = build_pair()
    assert not net.chaos_enabled
    a.send(1, "x")
    net.engine.run()
    assert len(b.received) == 1


def test_link_down_loses_in_flight_messages():
    net, a, b = build_pair(latency=10.0)
    net.enable_chaos()
    a.send(1, "doomed")
    net.engine.schedule_at(5.0, net.set_link_state, "a", "b", False)
    net.engine.run()
    assert b.received == []
    assert any(
        e.kind == KIND_MSG_DROP and e.detail.get("reason") == "link_down"
        for e in net.trace
    )


def test_message_sent_over_down_link_is_dropped():
    net, a, b = build_pair()
    net.set_link_state("a", "b", up=False)
    a.send(1, "into the void")
    net.engine.run()
    assert b.received == []


def test_link_up_restores_delivery():
    net, a, b = build_pair(latency=10.0)
    net.set_link_state("a", "b", up=False)
    net.engine.schedule_at(5.0, net.set_link_state, "a", "b", True)
    net.engine.schedule_at(6.0, a.send, 1, "after repair")
    net.engine.run()
    assert [m for _, m in b.received] == ["after repair"]
    kinds = [e.kind for e in net.trace]
    assert KIND_LINK_DOWN in kinds and KIND_LINK_UP in kinds


def test_link_state_changes_notify_both_endpoints():
    net, a, b = build_pair()
    net.set_link_state("a", "b", up=False)
    net.set_link_state("a", "b", up=True)
    net.engine.run()
    assert a.port_events == [(0.0, 1, False), (0.0, 1, True)]
    assert b.port_events == [(0.0, 1, False), (0.0, 1, True)]


def test_link_state_is_idempotent():
    net, a, b = build_pair()
    net.set_link_state("a", "b", up=False)
    net.set_link_state("a", "b", up=False)
    net.engine.run()
    assert net.trace.count_of_kind(KIND_LINK_DOWN) == 1
    assert a.port_events == [(0.0, 1, False)]


def test_crashed_node_neither_sends_nor_receives():
    net, nodes, ctrl = build_triangle()
    net.crash_switch("b")
    nodes["a"].send(1, "to the dead")
    net.engine.run()
    assert nodes["b"].received == []
    assert "b" in net._down_nodes
    # a learns its port to b went down.
    assert nodes["a"].port_events == [(0.0, 1, False)]
    assert any(
        e.kind == KIND_MSG_DROP and e.detail.get("reason") == "dest_down"
        for e in net.trace
    )


def test_crash_then_restart_round_trip():
    net, nodes, ctrl = build_triangle()
    net.crash_switch("b")
    net.restart_switch("b")
    nodes["a"].send(1, "welcome back")
    net.engine.run()
    assert [m for _, m in nodes["b"].received] == ["welcome back"]
    kinds = [e.kind for e in net.trace]
    assert KIND_SWITCH_CRASH in kinds and KIND_SWITCH_RESTART in kinds
    # Neighbours saw the port flap.
    assert nodes["a"].port_events == [(0.0, 1, False), (0.0, 1, True)]


def test_crash_records_preserve_state_flag():
    net, nodes, _ = build_triangle()
    net.crash_switch("b", preserve_state=True)
    events = [e for e in net.trace if e.kind == KIND_SWITCH_CRASH]
    assert len(events) == 1
    assert events[0].detail["preserve_state"] is True


def test_controller_outage_buffers_in_flight_reports():
    """A report in flight when the outage begins waits in the preserved
    service queue and is delivered after recovery, not lost."""
    net, nodes, ctrl = build_triangle()
    nodes["a"].send_control("urgent report")            # arrives at t=1
    net.engine.schedule_at(0.5, net.set_controller_outage, True)
    net.engine.schedule_at(5.0, net.set_controller_outage, False)
    net.engine.run()
    assert len(ctrl.control) == 1
    assert ctrl.control[0][0] >= 5.0                    # held until recovery
    assert ctrl.control[0][1] == "urgent report"
    recv = [e for e in net.trace if e.kind == KIND_MSG_RECV]
    assert [(e.node, e.detail["sender"]) for e in recv] == [("ctrl", "a")]
    kinds = [e.kind for e in net.trace]
    assert KIND_CONTROLLER_DOWN in kinds and KIND_CONTROLLER_UP in kinds


def test_control_send_during_outage_is_black_holed():
    net, nodes, ctrl = build_triangle()
    net.set_controller_outage(True)
    nodes["a"].send_control("shouted into the void")
    net.engine.run()
    assert ctrl.control == []
    assert any(
        e.kind == KIND_MSG_DROP and e.detail.get("reason") == "controller_outage"
        for e in net.trace
    )


def test_controller_outage_drops_controller_sends():
    net, nodes, ctrl = build_triangle()
    net.enable_chaos()
    net.controller_outage = True
    ctrl.send_control(ControlMsg(target="a", body="stale order"))
    net.engine.run()
    assert nodes["a"].control == []


def test_crashed_sender_control_is_dropped():
    net, nodes, ctrl = build_triangle()
    net.crash_switch("a")
    nodes["a"].send_control("ghost")
    net.engine.run()
    assert ctrl.control == []


def test_unknown_link_rejected():
    net, a, b = build_pair()
    with pytest.raises(KeyError):
        net.set_link_state("a", "nope", up=False)
