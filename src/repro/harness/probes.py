"""Probe traffic for the Fig. 2 experiment.

Generates data packets at a fixed rate at a flow's ingress switch
(125 pps, TTL 64 in the paper) and extracts per-node receive series
and delivery/loss statistics from the trace afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.messages import make_probe
from repro.harness.build import Deployment
from repro.sim.trace import (
    KIND_PACKET_DELIVERED,
    KIND_PACKET_LOST,
    KIND_PACKET_RECV,
    Trace,
)


class ProbeSource:
    """Injects probe packets for one flow at a constant rate."""

    def __init__(
        self,
        deployment: Deployment,
        flow_id: int,
        ingress: str,
        rate_pps: Optional[float] = None,
        ttl: Optional[int] = None,
    ) -> None:
        self.deployment = deployment
        self.flow_id = flow_id
        self.ingress = ingress
        params = deployment.params
        self.interval_ms = 1000.0 / (rate_pps or params.probe_rate_pps)
        self.ttl = ttl if ttl is not None else params.probe_ttl
        self.sent = 0
        self._stop_at: Optional[float] = None

    def start(self, at: float, stop_at: float) -> None:
        """Schedule probe generation over [at, stop_at]."""
        self._stop_at = stop_at
        engine = self.deployment.network.engine
        engine.schedule_at(at, self._tick)

    def _tick(self) -> None:
        engine = self.deployment.network.engine
        if self._stop_at is not None and engine.now > self._stop_at:
            return
        switch = self.deployment.switches[self.ingress]
        packet = make_probe(
            self.flow_id, self.sent, self.ttl,
            self.deployment.network.take_packet_id(),
        )
        self.sent += 1
        switch.inject(packet)
        engine.schedule(self.interval_ms, self._tick)


@dataclass(frozen=True)
class ProbeObservation:
    """One probe sighting: (time, sequence id)."""

    time: float
    seq: int


def receives_at(trace: Trace, node: str, flow_id: int) -> list[ProbeObservation]:
    """All probe receptions of a flow at one node (Fig. 2b's series)."""
    return [
        ProbeObservation(e.time, e.detail["seq"])
        for e in trace.of_kind(KIND_PACKET_RECV)
        if e.node == node and e.detail.get("flow") == flow_id
    ]


def deliveries(trace: Trace, flow_id: int) -> list[ProbeObservation]:
    """Probes delivered at the flow egress (Fig. 2c's series)."""
    return [
        ProbeObservation(e.time, e.detail["seq"])
        for e in trace.of_kind(KIND_PACKET_DELIVERED)
        if e.detail.get("flow") == flow_id
    ]


def ttl_losses(trace: Trace, flow_id: int) -> list[ProbeObservation]:
    """Probes that died of TTL expiry (looping packets)."""
    return [
        ProbeObservation(e.time, e.detail["seq"])
        for e in trace.of_kind(KIND_PACKET_LOST)
        if e.detail.get("flow") == flow_id and e.detail.get("reason") == "ttl"
    ]


def duplicate_receives(observations: list[ProbeObservation]) -> dict[int, int]:
    """seq -> times seen, for sequences seen more than once (loops)."""
    counts: dict[int, int] = {}
    for obs in observations:
        counts[obs.seq] = counts.get(obs.seq, 0) + 1
    return {seq: n for seq, n in counts.items() if n > 1}
