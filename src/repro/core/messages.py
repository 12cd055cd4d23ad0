"""P4Update's four message types (paper §6, Fig. 5).

* **FRM** — Flow Report Message, data plane -> control plane, announces
  a new flow (App. B: hash of the src/dst pair).
* **UIM** — Update Indication Message, control plane -> one switch,
  carries the new configuration and verification content (distance,
  version, flow size, egress port, §8).
* **UNM** — Update Notification Message, switch -> switch through the
  data plane.  In the implementation it is a P4 packet header; the
  :class:`UNMFields` tuple mirrors the header fields and converts
  to/from :class:`repro.p4.packet.Packet`.
* **UFM** — Update Feedback Message, data plane -> control plane,
  reports update success or an inconsistency alarm.

UIM/FRM/UFM travel the control channel and are plain objects; the UNM
travels the data plane as a packet.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, NamedTuple, Optional

from repro.p4.packet import HeaderField, HeaderType, Packet
from repro.sim.network import describe


class UpdateType(enum.IntEnum):
    """Last/pending update type (the ``t`` register of Table 1)."""

    NONE = 0          # initial deployment / unknown
    SINGLE = 1        # SL-P4Update
    DUAL = 2          # DL-P4Update


@dataclass(frozen=True)
class FRM:
    """Flow Report Message: a new flow appeared at an ingress switch."""

    flow_id: int
    src: str
    dst: str
    reporter: str

    def describe(self) -> str:
        return f"FRM(flow={self.flow_id} {self.src}->{self.dst})"


class UIM(NamedTuple):
    """Update Indication Message for one switch and one flow.

    ``target`` routes the control-channel delivery.  Role flags tell
    the data plane which UNMs to originate (§8: first-layer UNM at the
    flow egress, second-layer UNM at each segment egress gateway).

    A tuple-backed immutable value: the controller builds one per node
    per update, positionally, so the field order below is load-bearing
    (``docs/ARCHITECTURE.md``, "What a prepared update costs").
    """

    target: str                   # switch this UIM configures
    flow_id: int
    version: int
    new_distance: int
    egress_port: int              # new egress port (registers.LOCAL_DELIVER_PORT at flow egress)
    flow_size: float
    update_type: UpdateType
    child_port: Optional[int]     # port towards the child in the new path (None at ingress)
    # Destination-tree updates (§11): ports towards every child in the
    # new in-tree; when non-empty the UNM chain branches to all.
    child_ports: tuple = ()
    is_flow_egress: bool = False
    is_segment_egress: bool = False
    is_ingress: bool = False
    is_gateway: bool = False      # member of G (on both P_o and P_n)
    # §11 two-phase-commit integration: when set, the rules are staged
    # under this packet tag instead of replacing the live forwarding;
    # the ingress flips to the new tag once the SL chain completed.
    stage_tag: Optional[int] = None
    # §11 "Reducing the Number of Control Plane Messages": UIMs for the
    # upstream nodes of this segment, carried as a header stack on the
    # UNM and popped hop by hop (source-routing style).
    piggyback: tuple = ()

    def describe(self) -> str:
        return (
            f"UIM(to={self.target} flow={self.flow_id} v={self.version} "
            f"dn={self.new_distance} type={self.update_type.name})"
        )


@dataclass(frozen=True)
class TagFlip:
    """Controller -> ingress switch: start stamping the new tag (§11
    2-phase-commit integration; Reitblatt et al.'s abstraction).

    Carries the new path so the harness's ground-truth forwarding
    state can record the atomic path switch at the flip instant."""

    target: str
    flow_id: int
    version: int
    tag: int
    new_path: tuple = ()

    def describe(self) -> str:
        return f"TagFlip(to={self.target} flow={self.flow_id} tag={self.tag})"


@dataclass(frozen=True)
class UFM:
    """Update Feedback Message: success report or inconsistency alarm."""

    flow_id: int
    version: int
    reporter: str
    status: str                   # "success" | "alarm"
    reason: str = ""

    def describe(self) -> str:
        return f"UFM(flow={self.flow_id} v={self.version} {self.status} {self.reason})"


# -- §11 failure handling (repro.chaos) ---------------------------------------


@dataclass(frozen=True)
class PortStatus:
    """Switch -> controller: a local port changed state.

    The paper's NIB learns about link failures through port-down
    reports from the adjacent switches (§11); both endpoints of a
    failed link report, and the controller deduplicates by edge.
    """

    reporter: str
    peer: str                     # neighbor reached through the port
    port: int
    up: bool

    def describe(self) -> str:
        state = "up" if self.up else "down"
        return f"PortStatus({self.reporter}:{self.port}->{self.peer} {state})"


@dataclass(frozen=True)
class Sequenced:
    """Reliable-delivery envelope for controller -> switch messages.

    Wraps a UIM or TagFlip with a globally unique sequence number; the
    receiving switch always acks the number and processes the inner
    message at most once (receiver-side dedup), which makes duplicated
    or retransmitted control messages safe end-to-end.
    """

    seq: int
    target: str                   # routes the control-channel delivery
    inner: Any

    def describe(self) -> str:
        return f"Seq#{self.seq}({describe(self.inner)})"


@dataclass(frozen=True)
class ControlAck:
    """Switch -> controller: acknowledges one :class:`Sequenced` send."""

    seq: int
    reporter: str

    def describe(self) -> str:
        return f"ControlAck(seq={self.seq} from={self.reporter})"


# -- UNM as a P4 header -------------------------------------------------------

UNM_HEADER = HeaderType(
    "unm",
    [
        HeaderField("flow_id", 16),
        HeaderField("layer", 2),          # 1 = inter-segment, 2 = intra-segment
        HeaderField("update_type", 2),    # UpdateType value
        HeaderField("new_version", 16),
        HeaderField("new_distance", 16),
        HeaderField("old_version", 16),
        HeaderField("old_distance", 16),
        HeaderField("counter", 16),
    ],
)


class UNMFields(NamedTuple):
    """Decoded UNM header contents (sender's state, paper §7.1)."""

    flow_id: int
    layer: int
    update_type: UpdateType
    new_version: int
    new_distance: int
    old_version: int
    old_distance: int
    counter: int = 0

    def to_packet(self, packet_id: int = 0) -> Packet:
        packet = Packet(packet_id=packet_id)
        header = packet.add_header("unm", UNM_HEADER.instantiate())
        header["flow_id"] = self.flow_id
        header["layer"] = self.layer
        header["update_type"] = int(self.update_type)
        header["new_version"] = self.new_version
        header["new_distance"] = self.new_distance
        header["old_version"] = self.old_version
        header["old_distance"] = self.old_distance
        header["counter"] = self.counter
        return packet

    @classmethod
    def from_packet(cls, packet: Packet) -> "UNMFields":
        header = packet.header("unm")
        return cls(
            flow_id=header["flow_id"],
            layer=header["layer"],
            update_type=UpdateType(header["update_type"]),
            new_version=header["new_version"],
            new_distance=header["new_distance"],
            old_version=header["old_version"],
            old_distance=header["old_distance"],
            counter=header["counter"],
        )

    def describe(self) -> str:
        return (
            f"UNM(flow={self.flow_id} L{self.layer} vn={self.new_version} "
            f"dn={self.new_distance} vo={self.old_version} do={self.old_distance} "
            f"c={self.counter})"
        )


# -- rule cleanup (§11) -----------------------------------------------------------

CLEANUP_HEADER = HeaderType(
    "cleanup",
    [
        HeaderField("flow_id", 16),
        HeaderField("version", 16),
    ],
)


def make_cleanup(flow_id: int, version: int, packet_id: int = 0) -> Packet:
    """Cleanup packet sent over the abandoned old link after an update
    (paper §11: "informing the old parent node that no further packets
    will be sent")."""
    packet = Packet(packet_id=packet_id)
    header = packet.add_header("cleanup", CLEANUP_HEADER.instantiate())
    header["flow_id"] = flow_id
    header["version"] = version
    return packet


# -- probe packets (Fig. 2 traffic) --------------------------------------------

PROBE_HEADER = HeaderType(
    "probe",
    [
        HeaderField("flow_id", 16),
        HeaderField("seq", 32),
        HeaderField("tag", 1),          # 2-phase-commit configuration tag
        HeaderField("tagged", 1),       # has the ingress stamped it yet?
    ],
)


def make_probe(flow_id: int, seq: int, ttl: int = 64, packet_id: int = 0) -> Packet:
    """Build a data-plane probe packet for a flow."""
    packet = Packet(ttl=ttl, packet_id=packet_id)
    header = packet.add_header("probe", PROBE_HEADER.instantiate())
    header["flow_id"] = flow_id
    header["seq"] = seq
    header["tag"] = 0
    header["tagged"] = 0
    return packet
