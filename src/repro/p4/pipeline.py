"""The pipeline driver: one ingress pass per packet.

A :class:`PipelineProgram` is the Python analogue of a compiled P4
program: it declares registers and clone sessions, and provides one
``ingress`` control block.  The :class:`PipelineContext` exposes the
primitives the paper's program relies on:

* ``forward(port)`` / ``drop()``;
* ``clone_to_session(session)`` — clone the packet to a session's port,
  the mechanism P4Update uses to mint UNMs (paper §8: "a one-to-one
  port-based forwarding table is used to determine the clone session of
  a UNM");
* ``resubmit()`` — re-run ingress later, P4Update's stand-in for a
  data-plane timer while a UNM waits for its UIM;
* ``to_cpu(reason)`` — punt a copy to the controller (FRM/UFM path).
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

from repro.p4.packet import Packet
from repro.p4.registers import RegisterFile


class CloneRequest(NamedTuple):
    """A clone of the packet towards ``session``'s port."""

    session: int
    packet: Packet


class CpuPunt(NamedTuple):
    """Copy of a packet sent to the controller with a reason code."""

    reason: str
    packet: Packet


class PipelineContext:
    """Per-pass execution state: the packet and what ingress decided.

    A fresh context is created for every pipeline pass — including
    resubmitted passes; nothing survives a resubmit but the packet and
    the registers.  The switch, not the program, counts resubmits.

    ``take_packet_id`` numbers the clones and punts of this pass; the
    switch passes its network's counter.  The default, ``int``, returns
    0: a pipeline driven without a network leaves its copies unnumbered.
    """

    def __init__(self, packet: Packet, take_packet_id: Callable[[], int] = int) -> None:
        self.packet = packet
        self.take_packet_id = take_packet_id
        # Outcomes, consumed by the switch after the pass.  No egress
        # port means the packet is dropped.
        self.egress_port: Optional[int] = None
        self.resubmit_requested = False
        self.clones: list[CloneRequest] = []
        self.punts: list[CpuPunt] = []

    # -- primitives ---------------------------------------------------------

    def forward(self, port: int) -> None:
        self.egress_port = port

    def drop(self) -> None:
        self.egress_port = None

    def resubmit(self) -> None:
        """Request this packet be run through ingress again."""
        self.resubmit_requested = True

    def clone_to_session(self, session: int) -> Packet:
        """Clone the packet towards a clone session (resolved by the
        program's session table).  Returns the clone for header edits."""
        twin = self.packet.clone(self.take_packet_id())
        self.clones.append(CloneRequest(session, twin))
        return twin

    def to_cpu(self, reason: str) -> Packet:
        twin = self.packet.clone(self.take_packet_id())
        self.punts.append(CpuPunt(reason, twin))
        return twin


class PipelineProgram:
    """Base class for P4-style programs.

    Subclasses declare state in ``__init__`` (registers via
    ``self.registers.define``) and override :meth:`ingress`.
    """

    def __init__(self) -> None:
        self.registers = RegisterFile()
        # Clone sessions: session id -> egress port.
        self.clone_sessions: dict[int, int] = {}

    def set_clone_session(self, session: int, port: int) -> None:
        self.clone_sessions[session] = port

    def ingress(self, ctx: PipelineContext) -> None:
        """Ingress processing; must call forward()/drop()/... ."""


class PipelineResult(NamedTuple):
    """Everything one pipeline pass decided; ``egress_port`` is ``None``
    on a dropped packet."""

    packet: Packet
    egress_port: Optional[int]
    resubmit: bool
    clones: Sequence[tuple[int, Packet]] = ()
    punts: Sequence[CpuPunt] = ()


class Pipeline:
    """Runs a program over packets and resolves clone sessions."""

    def __init__(self, program: PipelineProgram) -> None:
        self.program = program

    def process(
        self, packet: Packet, take_packet_id: Callable[[], int] = int
    ) -> PipelineResult:
        ctx = PipelineContext(packet, take_packet_id)
        self.program.ingress(ctx)
        # A clone goes to its session's port; one to an undefined
        # session is discarded.
        sessions = self.program.clone_sessions
        clones = [(sessions[session], twin) for session, twin in ctx.clones if session in sessions]
        return PipelineResult(
            packet, ctx.egress_port, ctx.resubmit_requested, clones, ctx.punts
        )
