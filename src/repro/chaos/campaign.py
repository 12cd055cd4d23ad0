"""Declarative chaos campaigns: dataclasses + JSON loader.

A :class:`FaultCampaign` describes one seeded robustness experiment:
the topology and workload, probabilistic message faults per plane,
scheduled topology events (link failures, switch crashes, controller
outages) and the protocol knobs that govern recovery.  Campaigns are
plain data — :mod:`repro.chaos.runner` executes them, and the
``repro chaos run`` CLI loads them from JSON files (see
``examples/chaos_smoke.json``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Any, Callable, Optional

from repro.loading import dataclass_from_object, read_json_object
from repro.sim.network import message_type
from repro.topo import TOPOLOGIES, topology_shape

TOPO_EVENT_KINDS = (
    "link_down",
    "link_up",
    "switch_crash",
    "switch_restart",
    "controller_down",
    "controller_up",
)

#: plane -> the scopes a fault spec on it may name: the data plane's are
#: ``repro.sim.network.message_type`` values, the control plane's name
#: message classes.
MESSAGE_SCOPES = {
    "data": ("all", "unm", "probe", "cleanup"),
    "control": ("all", "uim", "ufm"),
}


@dataclass(frozen=True)
class TopoEvent:
    """One scheduled topology failure or repair.

    ``node_a``/``node_b`` name the link endpoints for link events;
    switch and controller events use ``node_a`` only (controller
    events need neither).  ``preserve_state`` overrides the campaign's
    crash register policy for this one crash.
    """

    time_ms: float
    kind: str
    node_a: str = ""
    node_b: str = ""
    preserve_state: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.kind not in TOPO_EVENT_KINDS:
            raise ValueError(
                f"unknown topology event kind {self.kind!r}; "
                f"expected one of {TOPO_EVENT_KINDS}"
            )
        if self.kind.startswith("link_") and not (self.node_a and self.node_b):
            raise ValueError(f"{self.kind} needs node_a and node_b")
        if self.kind.startswith("switch_") and not self.node_a:
            raise ValueError(f"{self.kind} needs node_a")


@dataclass(frozen=True)
class MessageFaultSpec:
    """Probabilistic message faults for one plane, optionally scoped.

    ``scope`` restricts which messages are eligible: one of
    :data:`MESSAGE_SCOPES` for the spec's plane.  ``corruptor``
    names a registered mutation (see :data:`CORRUPTORS`) and is
    required when ``corrupt_prob`` > 0.
    """

    plane: str = "data"
    drop_prob: float = 0.0
    delay_prob: float = 0.0
    delay_ms: float = 0.0
    duplicate_prob: float = 0.0
    corrupt_prob: float = 0.0
    corruptor: str = ""
    scope: str = "all"

    def __post_init__(self) -> None:
        if self.plane not in MESSAGE_SCOPES:
            raise ValueError(f"unknown plane {self.plane!r}")
        scopes = MESSAGE_SCOPES[self.plane]
        if self.scope not in scopes:
            raise ValueError(
                f"unknown scope {self.scope!r} for the {self.plane} plane; "
                f"expected one of {scopes}"
            )
        if self.corrupt_prob > 0 and self.corruptor not in CORRUPTORS:
            raise ValueError(
                f"corrupt_prob set but corruptor {self.corruptor!r} is not "
                f"registered; known: {sorted(CORRUPTORS)}"
            )


@dataclass(frozen=True)
class FaultCampaign:
    """One complete, seeded chaos experiment description."""

    name: str
    topology: str = "fig1"
    scenario: str = "single"          # single | multi
    seed: int = 0
    horizon_ms: float = 60_000.0
    update_at_ms: float = 10.0        # when the reroute is triggered
    update_type: str = "auto"         # auto | single | dual
    events: tuple[TopoEvent, ...] = ()
    message_faults: tuple[MessageFaultSpec, ...] = ()
    # Protocol recovery knobs (mirror SimParams).
    reliable_control: bool = False
    unm_timeout_ms: float = 0.0
    controller_update_timeout_ms: float = 0.0
    crash_preserves_state: bool = False
    description: str = ""

    def __post_init__(self) -> None:
        if self.scenario not in ("single", "multi"):
            raise CampaignSpecError(f"unknown scenario {self.scenario!r}")
        if self.update_type not in ("auto", "single", "dual"):
            raise CampaignSpecError(f"unknown update_type {self.update_type!r}")
        # Checked against the topology here, so a bad event is a
        # load-time error and never a mid-run KeyError.
        validate_events_against_topology(self.events, self.topology)

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class CampaignSpecError(ValueError):
    """A chaos campaign document or field value is invalid."""


class SpecTopologyError(ValueError):
    """A spec addresses nodes or links that do not exist in its topology.

    Structured: ``topology`` names the offending topology and
    ``problems`` lists one human-readable line per bad reference, so
    CLIs can fail fast with an actionable message instead of a
    mid-run KeyError from deep inside the deployment."""

    def __init__(self, topology: str, problems: list[str]) -> None:
        self.topology = topology
        self.problems = list(problems)
        super().__init__(
            f"unknown node or link reference(s) for topology {topology!r}: "
            + "; ".join(self.problems)
        )


def validate_events_against_topology(
    events: tuple[TopoEvent, ...] | list[TopoEvent],
    topology: str,
    context: str = "events",
) -> None:
    """Fail fast when any event names a node absent from ``topology``,
    or a ``link_*`` event names two nodes with no link between them.

    :class:`TopoEvent` itself can only check shape (which fields are
    required per kind); existence needs the topology, so every spec
    that carries events calls this at load time.  Raises
    :class:`SpecTopologyError` listing every bad reference at once."""
    if topology not in TOPOLOGIES:
        raise SpecTopologyError(
            topology,
            [f"unknown topology; expected one of {sorted(TOPOLOGIES)}"],
        )
    nodes, links = topology_shape(topology)
    problems = []
    for i, event in enumerate(events):
        where = f"{context}[{i}] ({event.kind} at t={event.time_ms:g})"
        unknown = [
            f"{where}: {field}={name!r} is not a node"
            for field, name in (("node_a", event.node_a), ("node_b", event.node_b))
            if name and name not in nodes
        ]
        problems.extend(unknown)
        if (
            not unknown
            and event.kind.startswith("link_")
            and tuple(sorted((event.node_a, event.node_b))) not in links
        ):
            problems.append(
                f"{where}: no link between {event.node_a!r} and {event.node_b!r}"
            )
    if problems:
        raise SpecTopologyError(topology, problems)


def _each(cls: type, noun: str) -> Callable[[Any], tuple]:
    """The loader of a list field whose items are ``cls`` objects."""
    return lambda items: tuple(
        dataclass_from_object(cls, item, noun, CampaignSpecError)
        for item in items
    )


def load_campaign(data: dict) -> FaultCampaign:
    """Build a campaign from a plain (JSON-decoded) dict."""
    return dataclass_from_object(
        FaultCampaign, data, "chaos campaign", CampaignSpecError,
        events=_each(TopoEvent, "topology event"),
        message_faults=_each(MessageFaultSpec, "message fault"),
    )


def load_campaign_file(path: str) -> FaultCampaign:
    return load_campaign(
        read_json_object(path, "chaos campaign", CampaignSpecError)
    )


# -- registered corruptors ---------------------------------------------------
#
# Named mutations so campaigns can request corruption declaratively.
# Each receives a deep copy of the in-flight message and returns the
# mutated payload.


def _corrupt_unm_distance(message: Any) -> Any:
    """Skew the UNM's distance field: breaks the §7.1 distance check
    (D(UIM) == D(UNM) + 1) at the receiver, which must reject."""
    has_valid = getattr(message, "has_valid", None)
    if callable(has_valid) and has_valid("unm"):
        header = message.header("unm")
        header["new_distance"] = (header["new_distance"] + 7) % (1 << 16)
    return message


def _corrupt_unm_version(message: Any) -> Any:
    """Rewind the UNM's version: the receiver sees a stale update and
    must drop it (Alg. 1 line 6 / Alg. 2)."""
    has_valid = getattr(message, "has_valid", None)
    if callable(has_valid) and has_valid("unm"):
        header = message.header("unm")
        header["new_version"] = max(0, header["new_version"] - 1)
    return message


CORRUPTORS: dict[str, Callable[[Any], Any]] = {
    "unm_distance_skew": _corrupt_unm_distance,
    "unm_version_rewind": _corrupt_unm_version,
}


# -- message scope selectors -------------------------------------------------


def scope_selector(scope: str) -> Optional[Callable[[Any], bool]]:
    """Predicate limiting a fault spec to one message family."""
    if scope == "all":
        return None
    if scope in MESSAGE_SCOPES["data"]:
        return lambda message: message_type(message) == scope

    def control_scope(message: Any) -> bool:
        from repro.core.messages import UFM, UIM, Sequenced

        wanted: type = UIM if scope == "uim" else UFM
        if isinstance(message, Sequenced):
            return isinstance(message.inner, wanted)
        return isinstance(message, wanted)

    return control_scope


__all__ = [
    "CORRUPTORS",
    "CampaignSpecError",
    "FaultCampaign",
    "MESSAGE_SCOPES",
    "MessageFaultSpec",
    "SpecTopologyError",
    "TOPO_EVENT_KINDS",
    "TopoEvent",
    "load_campaign",
    "load_campaign_file",
    "scope_selector",
    "validate_events_against_topology",
]
