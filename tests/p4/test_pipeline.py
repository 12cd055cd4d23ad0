"""Unit tests for the pipeline driver and P4Switch node."""

import pytest

from repro.p4.packet import HeaderField, HeaderType, Packet
from repro.p4.pipeline import Pipeline, PipelineProgram
from repro.p4.switch import P4Switch
from repro.params import DelayDistribution, SimParams
from repro.sim.engine import Engine
from repro.sim.links import Link
from repro.sim.network import Network
from repro.sim.node import Node

TAG = HeaderType("tag", [HeaderField("value", 32)])


class ForwardingProgram(PipelineProgram):
    """Minimal program: ``fwd[tag.value]`` holds the egress port (0 = no
    rule), the way P4UpdateProgram forwards from ``cur_egress_port``."""

    def __init__(self):
        super().__init__()
        self.registers.define("fwd", 16)
        self.registers.define("seen", 16)

    def ingress(self, ctx):
        packet = ctx.packet
        if not packet.has_valid("tag"):
            ctx.drop()
            return
        value = packet.header("tag")["value"]
        self.registers["seen"].write(value % 16, 1)
        port = self.registers["fwd"].read(value % 16)
        if not port:
            ctx.drop()
            return
        ctx.forward(port)


def tagged_packet(value):
    packet = Packet()
    header = packet.add_header("tag", TAG.instantiate())
    header["value"] = value
    return packet


def fast_params():
    return SimParams(
        pipeline_delay=DelayDistribution.constant(0.1),
        resubmit_interval_ms=0.5,
    )


def test_pipeline_forwards_on_register_hit():
    program = ForwardingProgram()
    program.registers["fwd"].write(5, 2)
    result = Pipeline(program).process(tagged_packet(5))
    assert result.egress_port == 2


def test_pipeline_drops_on_miss():
    program = ForwardingProgram()
    result = Pipeline(program).process(tagged_packet(5))
    assert result.egress_port is None


class LastWordProgram(PipelineProgram):
    """Forwards to each port of ``calls`` in turn; ``None`` drops."""

    def __init__(self, calls):
        super().__init__()
        self.calls = calls

    def ingress(self, ctx):
        for port in self.calls:
            if port is None:
                ctx.drop()
            else:
                ctx.forward(port)


@pytest.mark.parametrize("calls, egress_port", [
    ([3, None], None), ([None, 3], 3), ([3, None, 4], 4), ([3, 4, None], None),
])
def test_last_of_forward_and_drop_wins(calls, egress_port):
    result = Pipeline(LastWordProgram(calls)).process(Packet())
    assert result.egress_port == egress_port


def test_registers_updated_from_data_plane():
    program = ForwardingProgram()
    program.registers["fwd"].write(3, 1)
    Pipeline(program).process(tagged_packet(3))
    assert program.registers["seen"].read(3) == 1


class CloningProgram(PipelineProgram):
    """Forwards on port 1 and clones to session 7."""

    def ingress(self, ctx):
        ctx.forward(1)
        ctx.clone_to_session(7)


def test_clone_resolves_to_its_session_port():
    program = CloningProgram()
    program.set_clone_session(7, 9)
    packet = Packet()
    result = Pipeline(program).process(packet)
    assert result.egress_port == 1
    assert len(result.clones) == 1
    port, clone = result.clones[0]
    assert port == 9
    assert clone is not packet


def test_clone_to_undefined_session_is_discarded():
    program = CloningProgram()
    result = Pipeline(program).process(Packet())
    assert result.clones == []


class WaitingProgram(PipelineProgram):
    """Resubmits until a register flag flips, then forwards."""

    def __init__(self):
        super().__init__()
        self.registers.define("ready", 1)

    def ingress(self, ctx):
        if self.registers["ready"].read(0):
            ctx.forward(1)
        else:
            ctx.resubmit()


class Sink(Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def handle_message(self, message):
        self.received.append((self.now, message))


def wire_switch(program, params=None):
    net = Network(Engine())
    switch = net.add_node(P4Switch("s1", program, params=params or fast_params()))
    sink = net.add_node(Sink("sink"))
    net.add_link(Link("s1", 1, "sink", 1, latency_ms=1.0))
    return net, switch, sink


def test_switch_resubmits_until_register_ready():
    program = WaitingProgram()
    net, switch, sink = wire_switch(program)
    switch.handle_message(Packet())
    # Flip the flag from the "control plane" at t=3ms.
    net.engine.schedule(3.0, program.registers["ready"].write, 0, 1)
    net.engine.run()
    assert len(sink.received) == 1
    arrival = sink.received[0][0]
    assert arrival > 3.0
    assert switch.resubmissions >= 1


def test_switch_gives_up_after_max_resubmits():
    program = WaitingProgram()
    params = fast_params()
    params.max_resubmits = 3
    net, switch, sink = wire_switch(program, params)
    switch.handle_message(Packet())
    net.engine.run()
    assert sink.received == []
    assert switch.packets_dropped == 1


def test_switch_rejects_non_packet_messages():
    program = ForwardingProgram()
    net, switch, _ = wire_switch(program)
    with pytest.raises(TypeError):
        switch.handle_message("not-a-packet")


class PuntingProgram(PipelineProgram):
    def ingress(self, ctx):
        ctx.to_cpu("flow_report")
        ctx.drop()


def test_punt_invokes_hook():
    program = PuntingProgram()
    net, switch, _ = wire_switch(program)
    punts = []
    switch.on_punt = lambda sw, punt: punts.append((sw.name, punt.reason))
    switch.handle_message(Packet())
    net.engine.run()
    assert punts == [("s1", "flow_report")]
