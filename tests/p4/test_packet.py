"""Unit tests for headers and packets."""

import pytest

from repro.p4.packet import Header, HeaderField, HeaderType, InvalidHeaderAccess, Packet
from repro.p4.pipeline import Pipeline, PipelineProgram
from repro.p4.switch import P4Switch
from repro.params import DelayDistribution, SimParams
from repro.sim.faults import FaultAction, ScriptedFault
from repro.sim.links import Link
from repro.sim.network import Network
from repro.sim.node import Node


def make_type():
    return HeaderType(
        "unm", [HeaderField("version", 16), HeaderField("distance", 16)]
    )


def test_header_type_requires_fields():
    with pytest.raises(ValueError):
        HeaderType("empty", [])


def test_field_write_sets_valid():
    header = make_type().instantiate()
    assert not header.is_valid()
    header["version"] = 3
    assert header.is_valid()
    assert header["version"] == 3


def test_field_width_truncation():
    header = make_type().instantiate()
    header["version"] = 0x1_FFFF  # 17 bits into a 16-bit field
    assert header["version"] == 0xFFFF


def test_read_invalid_header_raises():
    header = make_type().instantiate()
    with pytest.raises(InvalidHeaderAccess):
        _ = header["version"]


def test_unknown_field_raises():
    header = make_type().instantiate()
    with pytest.raises(KeyError):
        header["nope"] = 1


def test_tolerant_get_on_invalid_header():
    header = make_type().instantiate()
    assert header.get("version", 42) == 42


def test_set_invalid_hides_values():
    header = make_type().instantiate()
    header["version"] = 7
    header.set_invalid()
    assert not header.is_valid()
    header.set_valid()
    assert header["version"] == 7


def test_copy_from_requires_same_type():
    t1 = make_type()
    h1 = t1.instantiate()
    h2 = HeaderType("other", [HeaderField("x", 8)]).instantiate()
    with pytest.raises(TypeError):
        h1.copy_from(h2)


def test_packet_ids_are_unique():
    network = Network()
    first, second = (Packet(packet_id=network.take_packet_id()) for _ in "ab")
    assert first.packet_id != second.packet_id


def test_packet_ids_are_consecutive_per_network():
    """Numbering is deployment state: each network counts from 1 on its
    own, whatever another network in the process has issued."""
    one, two = Network(), Network()
    assert [one.take_packet_id() for _ in range(3)] == [1, 2, 3]
    assert [two.take_packet_id() for _ in range(2)] == [1, 2]
    assert one.take_packet_id() == 4
    assert Packet().packet_id == 0          # no network: unnumbered


def test_packet_clone_deep_copies_headers():
    packet = Packet()
    packet.meta["k"] = [1]
    header = packet.add_header("unm", make_type().instantiate())
    header["version"] = 5
    twin = packet.clone(packet_id=7)
    twin.header("unm")["version"] = 9
    twin.meta["k"].append(2)
    assert packet.header("unm")["version"] == 5
    assert packet.meta == {"k": [1]}
    assert twin.packet_id == 7 != packet.packet_id


def test_has_valid():
    packet = Packet()
    packet.add_header("unm", make_type().instantiate())
    assert not packet.has_valid("unm")
    packet.header("unm")["version"] = 1
    assert packet.has_valid("unm")
    assert not packet.has_valid("missing")


def test_missing_header_lookup_raises():
    with pytest.raises(KeyError):
        Packet().header("ghost")


# -- numbering inside a running network ----------------------------------------


class CloningProgram(PipelineProgram):
    """Forwards every packet on port 1 and clones it to session 1."""

    def ingress(self, ctx):
        ctx.forward(1)
        ctx.clone_to_session(1)


class Sink(Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def handle_message(self, message):
        self.received.append(message)


def test_a_clone_takes_a_fresh_id_from_the_same_network():
    program = CloningProgram()
    program.set_clone_session(1, 1)
    network = Network()
    params = SimParams(pipeline_delay=DelayDistribution.constant(0.1))
    switch = network.add_node(P4Switch("s1", program, params=params))
    sink = network.add_node(Sink("sink"))
    network.add_link(Link("s1", 1, "sink", 1, latency_ms=1.0))
    switch.handle_message(Packet(packet_id=network.take_packet_id()))
    network.engine.run()
    assert sorted(packet.packet_id for packet in sink.received) == [1, 2]
    assert network.next_packet_id == 3
    # A pipeline driven without a network leaves its clones unnumbered.
    result = Pipeline(program).process(Packet())
    assert [clone.packet_id for _, clone in result.clones] == [0]


def test_a_fault_duplicated_packet_keeps_its_id():
    network = Network()
    sender, sink = network.add_node(Sink("a")), network.add_node(Sink("b"))
    network.add_link(Link("a", 1, "b", 1, latency_ms=1.0))
    network.fault_model = ScriptedFault(lambda message: True, FaultAction.DUPLICATE)
    sender.send(1, Packet(packet_id=network.take_packet_id()))
    network.engine.run()
    first, copy = sink.received
    assert first is not copy
    assert first.packet_id == copy.packet_id == 1
    assert network.next_packet_id == 2      # the copy took no new id
