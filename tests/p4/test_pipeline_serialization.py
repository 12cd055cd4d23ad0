"""Tests for the single-pipeline FIFO model of the P4 switch."""

import pytest

from repro.p4.packet import Packet
from repro.p4.pipeline import PipelineProgram
from repro.p4.switch import P4Switch
from repro.params import DelayDistribution, SimParams
from repro.sim.engine import Engine
from repro.sim.links import Link
from repro.sim.network import Network
from repro.sim.node import Node


class Forwarder(PipelineProgram):
    def ingress(self, ctx):
        ctx.forward(1)


class Sink(Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def handle_message(self, message):
        self.received.append(self.now)


def wired(service_ms=1.0):
    params = SimParams(
        pipeline_delay=DelayDistribution.constant(service_ms),
    )
    net = Network(Engine())
    switch = net.add_node(P4Switch("s", Forwarder(), params=params))
    sink = net.add_node(Sink("sink"))
    net.add_link(Link("s", 1, "sink", 1, latency_ms=0.5))
    return net, switch, sink


def test_packets_serialise_through_one_pipeline():
    """Five simultaneous arrivals leave 1 service-time apart."""
    net, switch, sink = wired(service_ms=1.0)
    for _ in range(5):
        switch.handle_message(Packet())
    net.engine.run()
    times = sink.received
    assert len(times) == 5
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(gap == pytest.approx(1.0) for gap in gaps)
    assert times[0] == pytest.approx(1.0 + 0.5)   # service + link


def test_idle_pipeline_adds_no_queueing():
    net, switch, sink = wired(service_ms=1.0)
    switch.handle_message(Packet())
    net.engine.run()
    injected_at = net.engine.now
    # A second packet long after the first queues behind nothing:
    # exactly service (1.0) + link (0.5) later.
    switch.handle_message(Packet())
    net.engine.run()
    assert sink.received[1] == pytest.approx(injected_at + 1.5)


def test_busy_pipeline_delays_later_arrivals():
    net, switch, sink = wired(service_ms=2.0)
    switch.handle_message(Packet())
    net.engine.schedule(0.5, switch.handle_message, Packet())   # arrives mid-service
    net.engine.run()
    assert sink.received[0] == pytest.approx(2.5)
    assert sink.received[1] == pytest.approx(4.5)       # waited for slot


def test_processed_count_tracks_packets():
    net, switch, sink = wired()
    for _ in range(3):
        switch.handle_message(Packet())
    net.engine.run()
    assert switch.packets_processed == 3
