"""The P4 switch simulation node.

Couples a :class:`~repro.p4.pipeline.Pipeline` to the event simulator:
every packet, arriving on a link or generated locally, enters through
:meth:`P4Switch.handle_message` and traverses the pipeline after a
processing delay;
resubmitted packets re-enter ingress after the resubmit interval; CPU
punts travel over the control channel.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.p4.packet import Packet
from repro.p4.pipeline import Pipeline, PipelineProgram
from repro.params import SimParams
from repro.sim.node import Node


class P4Switch(Node):
    """A switch running one P4 program.

    Subclasses (or the program itself) may install
    ``on_punt(switch, punt)``, called for CPU-bound packets.
    """

    def __init__(
        self,
        name: str,
        program: PipelineProgram,
        params: Optional[SimParams] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(name)
        self.program = program
        self.pipeline = Pipeline(program)
        self.params = params if params is not None else SimParams()
        self.rng = rng if rng is not None else self.params.rng()
        self.on_punt: Optional[Callable[["P4Switch", Any], None]] = None
        self.packets_processed = 0
        self.packets_dropped = 0
        self.resubmissions = 0
        # The software target has ONE pipeline: packets serialise
        # through it.  This is what makes extra control messages (e.g.
        # DL's second-layer UNMs and resubmissions) cost real time
        # under load (paper §7.5, §11 "Data Plane Overhead").
        self._pipeline_busy_until = 0.0

    # -- reception -----------------------------------------------------------

    def handle_message(self, message: Any) -> None:
        if not isinstance(message, Packet):
            raise TypeError(
                f"{self.name}: data-plane message must be a Packet, got {type(message)!r}"
            )
        self._enqueue(message, 0)

    def _enqueue(self, packet: Packet, resubmit_count: int) -> None:
        """FIFO admission into the single pipeline."""
        engine = self.engine
        service = self.params.pipeline_delay.sample(self.rng)
        start = max(engine.now, self._pipeline_busy_until)
        finish = start + service
        self._pipeline_busy_until = finish
        engine.schedule(finish - engine.now, self._run_pipeline, packet, resubmit_count)

    # -- pipeline execution ------------------------------------------------------

    def _run_pipeline(self, packet: Packet, resubmit_count: int) -> None:
        self.packets_processed += 1
        assert self.network is not None  # a pass is an event of its engine
        result = self.pipeline.process(packet, self.network.take_packet_id)

        for punt in result.punts:
            if self.on_punt is not None:
                self.on_punt(self, punt)

        for port, clone in result.clones:
            self.send(port, clone)

        if result.resubmit:
            self.resubmissions += 1
            if self.obs.enabled:
                self.obs.metrics.counter("resubmissions", node=self.name).inc()
            if resubmit_count >= self.params.max_resubmits:
                self.packets_dropped += 1
                if self.obs.enabled:
                    self.obs.metrics.histogram(
                        "resubmit_wait_depth", node=self.name,
                    ).observe(resubmit_count)
                    self.obs.metrics.counter(
                        "resubmit_budget_exhausted", node=self.name,
                    ).inc()
                return
            self.engine.schedule(
                self.params.resubmit_interval_ms, self._enqueue, packet, resubmit_count + 1
            )
            return

        # The packet left the wait loop: record how deep it went.
        if resubmit_count and self.obs.enabled:
            self.obs.metrics.histogram(
                "resubmit_wait_depth", node=self.name,
            ).observe(resubmit_count)

        if result.egress_port is None:
            self.packets_dropped += 1
            return
        self.send(result.egress_port, result.packet)
