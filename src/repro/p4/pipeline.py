"""The pipeline driver: parser -> ingress -> egress -> deparser.

A :class:`PipelineProgram` is the Python analogue of a compiled P4
program: it declares header types and registers, and provides
``parser`` / ``ingress`` / ``egress`` control blocks.  The
:class:`PipelineContext` exposes the standard-metadata style state and
the primitives the paper's program relies on:

* ``forward(port)`` / ``drop()``;
* ``clone_to_session(session)`` — egress-side clone, the mechanism
  P4Update uses to mint UNMs (paper §8: "a one-to-one port-based
  forwarding table is used to determine the clone session of a UNM");
* ``resubmit()`` — re-run ingress later, P4Update's stand-in for a
  data-plane timer while a UNM waits for its UIM;
* ``to_cpu(reason)`` — punt a copy to the controller (FRM/UFM path).
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.p4.packet import Packet
from repro.p4.registers import RegisterFile


class CloneRequest(NamedTuple):
    """Egress-side clone: replay the packet on ``session``'s port."""

    session: int
    packet: Packet


class CpuPunt(NamedTuple):
    """Copy of a packet sent to the controller with a reason code."""

    reason: str
    packet: Packet


class PipelineContext:
    """Per-pass execution state (the P4 runtime metadata).

    A fresh context is created for every pipeline pass — including
    resubmitted passes, matching P4 semantics where metadata is
    refreshed per packet (paper §2.1).  Fields the program wants to
    survive a resubmit must be stashed via :meth:`carry`.

    ``take_packet_id`` numbers the clones and punts of this pass; the
    switch passes its network's counter.  The default, ``int``, returns
    0: a pipeline driven without a network leaves its copies unnumbered.
    """

    def __init__(
        self,
        packet: Packet,
        in_port: int,
        resubmit_count: int = 0,
        take_packet_id: Callable[[], int] = int,
    ) -> None:
        self.packet = packet
        self.in_port = in_port
        self.resubmit_count = resubmit_count
        self.take_packet_id = take_packet_id
        self.metadata: dict[str, Any] = {}
        # Outcomes, consumed by the switch after the pass.
        self.egress_port: Optional[int] = None
        self.dropped = False
        self.resubmit_requested = False
        self.clones: list[CloneRequest] = []
        self.punts: list[CpuPunt] = []
        self._carried: dict[str, Any] = {}

    # -- primitives ---------------------------------------------------------

    def forward(self, port: int) -> None:
        self.egress_port = port
        self.dropped = False

    def drop(self) -> None:
        self.dropped = True
        self.egress_port = None

    def resubmit(self) -> None:
        """Request this packet be run through ingress again."""
        self.resubmit_requested = True

    def clone_to_session(self, session: int) -> Packet:
        """Clone the packet towards a clone session (resolved by the
        switch's session table).  Returns the clone for header edits in
        the egress block."""
        twin = self.packet.clone(self.take_packet_id())
        self.clones.append(CloneRequest(session, twin))
        return twin

    def to_cpu(self, reason: str) -> Packet:
        twin = self.packet.clone(self.take_packet_id())
        self.punts.append(CpuPunt(reason, twin))
        return twin

    # -- resubmit-carried state --------------------------------------------------

    def carry(self, key: str, value: Any) -> None:
        """Persist a value onto the packet across a resubmit (P4's
        resubmit field list)."""
        self._carried[key] = value

    def carried(self, key: str, default: Any = None) -> Any:
        return self.packet.meta.get("_carried", {}).get(key, default)


class PipelineProgram:
    """Base class for P4-style programs.

    Subclasses declare state in ``__init__`` (registers via
    ``self.registers.define``) and override the three control blocks.
    """

    def __init__(self) -> None:
        self.registers = RegisterFile()
        # Clone sessions: session id -> egress port.
        self.clone_sessions: dict[int, int] = {}

    def set_clone_session(self, session: int, port: int) -> None:
        self.clone_sessions[session] = port

    # -- control blocks (override) ----------------------------------------------

    def parser(self, packet: Packet, ctx: PipelineContext) -> None:
        """Populate/validate headers.  Default: pass-through."""

    def ingress(self, ctx: PipelineContext) -> None:
        """Ingress processing; must call forward()/drop()/... ."""

    def egress(self, ctx: PipelineContext) -> None:
        """Egress processing; clones traverse this with their own ctx."""

    def deparser(self, packet: Packet, ctx: PipelineContext) -> None:
        """Serialise headers back.  Default: pass-through."""


class PipelineResult(NamedTuple):
    """Everything one pipeline pass decided."""

    packet: Packet
    egress_port: Optional[int]
    dropped: bool
    resubmit: bool
    clones: Sequence[tuple[int, Packet]] = ()
    punts: Sequence[CpuPunt] = ()


class Pipeline:
    """Runs a program over packets and resolves clone sessions."""

    def __init__(self, program: PipelineProgram) -> None:
        self.program = program

    def process(
        self,
        packet: Packet,
        in_port: int,
        resubmit_count: int = 0,
        take_packet_id: Callable[[], int] = int,
    ) -> PipelineResult:
        ctx = PipelineContext(packet, in_port, resubmit_count, take_packet_id)
        self.program.parser(packet, ctx)
        self.program.ingress(ctx)

        clones: list[tuple[int, Packet]] = []
        if not ctx.dropped and ctx.egress_port is not None:
            self.program.egress(ctx)
        # Clones pass through egress with their own context, as on BMv2.
        for request in ctx.clones:
            port = self.program.clone_sessions.get(request.session)
            if port is None:
                continue
            clone_ctx = PipelineContext(request.packet, in_port, 0, take_packet_id)
            clone_ctx.metadata["is_clone"] = True
            clone_ctx.metadata["clone_session"] = request.session
            clone_ctx.egress_port = port
            self.program.egress(clone_ctx)
            if not clone_ctx.dropped:
                self.program.deparser(request.packet, clone_ctx)
                clones.append((port, request.packet))

        if ctx.resubmit_requested and ctx._carried:
            packet.meta.setdefault("_carried", {}).update(ctx._carried)
        self.program.deparser(packet, ctx)
        return PipelineResult(
            packet,
            None if ctx.dropped else ctx.egress_port,
            ctx.dropped,
            ctx.resubmit_requested,
            clones,
            ctx.punts,
        )
