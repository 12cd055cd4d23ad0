"""Unit tests for network wiring and message delivery."""

import pytest

from repro.sim.engine import Engine
from repro.sim.links import ControlChannel, Link
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.trace import KIND_MSG_RECV


class Recorder(Node):
    """Node that logs everything it receives with timestamps."""

    def __init__(self, name):
        super().__init__(name)
        self.received = []
        self.control = []

    def handle_message(self, message):
        self.received.append((self.now, message))

    def handle_control(self, message):
        self.control.append((self.now, message))


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


def test_data_message_arrives_after_link_latency():
    net, a, b = build_pair(latency=7.5)
    a.send(1, "hello")
    net.engine.run()
    assert b.received == [(7.5, "hello")]
    assert [e.detail["port"] for e in net.trace if e.kind == KIND_MSG_RECV] == [1]


def test_bidirectional_delivery():
    net, a, b = build_pair()
    a.send(1, "ping")
    net.engine.run()
    b.send(1, "pong")
    net.engine.run()
    assert a.received[0][1] == "pong"


def test_duplicate_node_name_rejected():
    net = Network(Engine())
    net.add_node(Recorder("a"))
    with pytest.raises(ValueError):
        net.add_node(Recorder("a"))


def test_link_requires_known_nodes():
    net = Network(Engine())
    net.add_node(Recorder("a"))
    with pytest.raises(ValueError):
        net.add_link(Link("a", 1, "ghost", 1, latency_ms=1.0))


def test_port_reuse_rejected():
    net = Network(Engine())
    for name in ("a", "b", "c"):
        net.add_node(Recorder(name))
    net.add_link(Link("a", 1, "b", 1, latency_ms=1.0))
    with pytest.raises(ValueError):
        net.add_link(Link("a", 1, "c", 1, latency_ms=1.0))


def test_port_towards_and_neighbor_lookup():
    net = Network(Engine())
    for name in ("a", "b", "c"):
        net.add_node(Recorder(name))
    net.add_link(Link("a", 1, "b", 2, latency_ms=1.0))
    net.add_link(Link("a", 2, "c", 1, latency_ms=1.0))
    assert net.port_towards("a", "b") == 1
    assert net.port_towards("a", "c") == 2
    assert net.port_towards("b", "a") == 2
    assert net.neighbor_on_port("a", 2) == "c"


def test_unknown_port_raises():
    net, a, _ = build_pair()
    with pytest.raises(KeyError):
        net.link_at("a", 99)


def test_control_switch_to_controller_pays_channel_latency():
    net, a, b = build_pair()
    net.set_controller("a")
    net.add_control_channel(ControlChannel("b", latency_ms=20.0))
    b.send_control("report")
    net.engine.run()
    assert a.control == [(20.0, "report")]
    assert [e.detail["sender"] for e in net.trace if e.kind == KIND_MSG_RECV] == ["b"]


def test_control_controller_to_switch_needs_target():
    net, a, b = build_pair()
    net.set_controller("a")
    net.add_control_channel(ControlChannel("b", latency_ms=5.0))
    a.send_control(ControlMsg(target="b", body="update"))
    net.engine.run()
    assert len(b.control) == 1
    assert b.control[0][0] == 5.0


def test_control_message_without_target_rejected():
    net, a, _ = build_pair()
    net.set_controller("a")
    net.add_control_channel(ControlChannel("b", latency_ms=5.0))
    with pytest.raises(ValueError):
        a.send_control("no-target")


def test_controller_service_queue_serialises_messages():
    """Two switch reports arriving together are served one after another."""
    net = Network(Engine())

    class BusyController(Recorder):
        def control_service_time(self):
            return 10.0

    ctrl = net.add_node(BusyController("ctrl"))
    s1 = net.add_node(Recorder("s1"))
    s2 = net.add_node(Recorder("s2"))
    net.add_link(Link("ctrl", 1, "s1", 1, latency_ms=1.0))
    net.add_link(Link("ctrl", 2, "s2", 1, latency_ms=1.0))
    net.set_controller("ctrl")
    net.add_control_channel(ControlChannel("s1", latency_ms=2.0))
    net.add_control_channel(ControlChannel("s2", latency_ms=2.0))
    s1.send_control("r1")
    s2.send_control("r2")
    net.engine.run()
    times = sorted(t for t, _ in ctrl.control)
    # First report: 2 ms channel + 10 ms service; second queues behind it.
    assert times == [12.0, 22.0]


def test_trace_records_send_and_recv():
    net, a, _ = build_pair()
    a.send(1, "x")
    net.engine.run()
    kinds = [e.kind for e in net.trace]
    assert "msg_send" in kinds and "msg_recv" in kinds


def test_unattached_node_send_raises():
    orphan = Recorder("orphan")
    with pytest.raises(RuntimeError):
        orphan.send(1, "x")
    with pytest.raises(RuntimeError):
        orphan.send_control("x")


# -- control-plane fault delivery paths -------------------------------------


class Mutable:
    """Control payload whose corruption is observable."""

    def __init__(self, target, value):
        self.target = target
        self.value = value


def control_pair():
    from repro.sim.faults import FaultAction, ScriptedFault

    net, a, b = build_pair()
    net.set_controller("a")
    net.add_control_channel(ControlChannel("b", latency_ms=5.0))
    return net, a, b, FaultAction, ScriptedFault


def test_control_duplicate_switch_to_controller_delivers_twice():
    net, ctrl, sw, FaultAction, ScriptedFault = control_pair()
    net.control_fault_model = ScriptedFault(
        matches=lambda m: True, action=FaultAction.DUPLICATE, max_hits=1
    )
    sw.send_control("report")
    net.engine.run()
    assert [m for _, m in ctrl.control] == ["report", "report"]


def test_control_duplicate_controller_to_switch_delivers_twice():
    net, ctrl, sw, FaultAction, ScriptedFault = control_pair()
    net.control_fault_model = ScriptedFault(
        matches=lambda m: True, action=FaultAction.DUPLICATE, max_hits=1
    )
    ctrl.send_control(Mutable(target="b", value="order"))
    net.engine.run()
    assert [m.value for _, m in sw.control] == ["order", "order"]


def test_control_duplicate_is_a_deep_copy():
    net, ctrl, sw, FaultAction, ScriptedFault = control_pair()
    net.control_fault_model = ScriptedFault(
        matches=lambda m: True, action=FaultAction.DUPLICATE, max_hits=1
    )
    ctrl.send_control(Mutable(target="b", value="order"))
    net.engine.run()
    first, second = (m for _, m in sw.control)
    assert first is not second


def test_control_corrupt_mutates_delivery_not_sender_object():
    net, ctrl, sw, FaultAction, ScriptedFault = control_pair()

    def garble(message):
        message.value = "garbled"
        return message

    net.control_fault_model = ScriptedFault(
        matches=lambda m: isinstance(m, Mutable),
        action=FaultAction.CORRUPT,
        mutate=garble,
    )
    original = Mutable(target="b", value="order")
    ctrl.send_control(original)
    net.engine.run()
    assert [m.value for _, m in sw.control] == ["garbled"]
    assert original.value == "order"     # sender's copy untouched


def test_control_corrupt_switch_to_controller():
    net, ctrl, sw, FaultAction, ScriptedFault = control_pair()

    def garble(message):
        message.value = "garbled"
        return message

    net.control_fault_model = ScriptedFault(
        matches=lambda m: isinstance(m, Mutable),
        action=FaultAction.CORRUPT,
        mutate=garble,
    )
    sw.send_control(Mutable(target=None, value="report"))
    net.engine.run()
    assert [m.value for _, m in ctrl.control] == ["garbled"]
