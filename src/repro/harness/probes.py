"""Probe traffic for the Fig. 2 experiment.

Generates data packets at a fixed rate at a flow's ingress switch
(125 pps, TTL 64 in the paper) and records the flow's per-node receive
series, deliveries and TTL losses as the trace sees them.
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
    TraceEvent,
)


@dataclass(frozen=True)
class ProbeObservation:
    """One probe sighting: (time, sequence id)."""

    time: float
    seq: int


class ProbeSource:
    """Injects probe packets for one flow at a constant rate, and
    records the flow's sightings from construction on: per node
    (``received``, Fig. 2b's series at v1), at the egress
    (``delivered``, Fig. 2c's) and TTL expiries (``ttl_losses``, the
    looping packets)."""

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
        self.received: dict[str, list[ProbeObservation]] = {}
        self.delivered: list[ProbeObservation] = []
        self.ttl_losses: list[ProbeObservation] = []
        deployment.network.trace.subscribe(
            self._sighted,
            (KIND_PACKET_RECV, KIND_PACKET_DELIVERED, KIND_PACKET_LOST),
        )

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
        switch.handle_message(packet)
        engine.schedule(self.interval_ms, self._tick)

    def _sighted(self, event: TraceEvent) -> None:
        detail = event.detail
        if detail.get("flow") != self.flow_id:
            return
        seen = ProbeObservation(event.time, detail["seq"])
        if event.kind == KIND_PACKET_RECV:
            self.received.setdefault(event.node, []).append(seen)
        elif event.kind == KIND_PACKET_DELIVERED:
            self.delivered.append(seen)
        elif detail.get("reason") == "ttl":
            self.ttl_losses.append(seen)


def duplicate_receives(observations: list[ProbeObservation]) -> dict[int, int]:
    """seq -> times seen, for sequences seen more than once (loops)."""
    counts: dict[int, int] = {}
    for obs in observations:
        counts[obs.seq] = counts.get(obs.seq, 0) + 1
    return {seq: n for seq, n in counts.items() if n > 1}
