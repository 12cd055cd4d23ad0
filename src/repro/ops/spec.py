"""Declarative operations-session specifications.

A session spec embeds one complete :class:`~repro.serve.spec.ServeSpec`
(the background tenant churn) and overlays an **operations timeline**:
scheduled live operations executed while the service keeps running.
Example::

    {
      "name": "drain-smoke",
      "serve": {"name": "bg", "topology": "b4", "flows": 8, ...},
      "tenants": 4,
      "checkpoint_every_ms": 5000.0,
      "timeline": [
        {"at_ms": 1000.0, "op": "drain_switch", "switch": "CHARLOTTE"},
        {"at_ms": 30000.0, "op": "undrain_switch", "switch": "CHARLOTTE"},
        {"at_ms": 40000.0, "op": "migrate_tenant", "tenant": 1},
        {"at_ms": 50000.0, "op": "rebalance", "max_moves": 4}
      ]
    }

Like every spec in the repo, unknown fields are rejected — both on the
session document and on each timeline entry — and every switch name is
validated against the serve topology at load time, so a typo fails
fast instead of as a mid-session KeyError: timeline targets and avoid
lists with a structured :class:`~repro.chaos.campaign.SpecTopologyError`,
embedded chaos events by the embedded serve spec's own loader.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.loading import (
    dataclass_from_object, plain, read_json_object, require_object, spec_digest,
)

#: Operations a timeline entry can request.
OP_KINDS = ("migrate_tenant", "drain_switch", "undrain_switch", "rebalance")

#: Allowed keys per operation (everything else is rejected).
_OP_FIELDS: dict[str, frozenset[str]] = {
    "migrate_tenant": frozenset({"at_ms", "op", "tenant", "avoid"}),
    "drain_switch": frozenset({"at_ms", "op", "switch"}),
    "undrain_switch": frozenset({"at_ms", "op", "switch"}),
    "rebalance": frozenset({"at_ms", "op", "max_moves"}),
}


class SessionSpecError(ValueError):
    """Raised for malformed session specifications."""


@dataclass(frozen=True)
class SessionSpec:
    """A validated operations-session description."""

    name: str
    serve: dict = field(default_factory=dict)
    timeline: tuple = ()
    tenants: int = 4
    # Sim-time checkpoint cadence (0 = no periodic checkpoints).  The
    # tick events are scheduled whenever this is > 0 — independently of
    # whether a run actually writes checkpoints — so a checkpointing
    # run and a plain run of the same spec share the identical engine
    # event sequence (the byte-identical-resume contract).
    checkpoint_every_ms: float = 0.0
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SessionSpecError("session spec needs a non-empty 'name'")
        if not isinstance(self.serve, dict) or not self.serve:
            raise SessionSpecError(
                "session spec needs a 'serve' object (a full serve spec)"
            )
        from repro.serve.spec import ServeSpecError, load_serve_spec

        try:
            serve = load_serve_spec(dict(self.serve))
        except ServeSpecError as exc:
            raise SessionSpecError(f"invalid embedded serve spec: {exc}") from None
        if serve.causal:
            raise SessionSpecError(
                "ops sessions do not support causal tracing "
                "(set serve.causal to false)"
            )
        if self.tenants < 1:
            raise SessionSpecError("session spec needs tenants >= 1")
        if self.checkpoint_every_ms < 0:
            raise SessionSpecError("checkpoint_every_ms must be >= 0")
        self._validate_timeline(serve.topology)

    def _validate_timeline(self, topology: str) -> None:
        from repro.chaos.campaign import SpecTopologyError
        from repro.topo import topology_shape

        nodes, _ = topology_shape(topology)
        problems: list[str] = []
        for i, entry in enumerate(self.timeline):
            where = f"timeline[{i}]"
            require_object(entry, where, SessionSpecError)
            op = entry.get("op")
            if op not in OP_KINDS:
                raise SessionSpecError(
                    f"{where} has unknown op {op!r}; expected one of {OP_KINDS}"
                )
            unknown = set(entry) - _OP_FIELDS[op]
            if unknown:
                raise SessionSpecError(
                    f"{where} ({op}) has unknown field(s) {sorted(unknown)}"
                )
            at_ms = entry.get("at_ms")
            if not isinstance(at_ms, (int, float)) or isinstance(at_ms, bool) \
                    or at_ms < 0:
                raise SessionSpecError(f"{where} needs at_ms >= 0")
            if op in ("drain_switch", "undrain_switch"):
                switch = entry.get("switch")
                if not switch or not isinstance(switch, str):
                    raise SessionSpecError(f"{where} ({op}) needs a 'switch'")
                if switch not in nodes:
                    problems.append(
                        f"{where} ({op} at t={at_ms:g}): "
                        f"switch={switch!r} is not a node"
                    )
            elif op == "migrate_tenant":
                tenant = entry.get("tenant")
                if not isinstance(tenant, int) or isinstance(tenant, bool) \
                        or not 0 <= tenant < self.tenants:
                    raise SessionSpecError(
                        f"{where} needs an integer tenant in "
                        f"[0, {self.tenants})"
                    )
                avoid = entry.get("avoid", [])
                if not isinstance(avoid, (list, tuple)) or not all(
                    isinstance(n, str) for n in avoid
                ):
                    raise SessionSpecError(
                        f"{where} 'avoid' must be a list of node names"
                    )
                for name in avoid:
                    if name not in nodes:
                        problems.append(
                            f"{where} (migrate_tenant at t={at_ms:g}): "
                            f"avoid node {name!r} is not a node"
                        )
            else:  # rebalance
                max_moves = entry.get("max_moves", 4)
                if not isinstance(max_moves, int) or isinstance(max_moves, bool) \
                        or max_moves < 1:
                    raise SessionSpecError(f"{where} needs max_moves >= 1")
        if problems:
            raise SpecTopologyError(topology, problems)

    # -- convenience views -------------------------------------------------

    def serve_spec(self) -> Any:
        """The embedded serve spec, validated."""
        from repro.serve.spec import load_serve_spec

        return load_serve_spec(dict(self.serve))

    def to_dict(self) -> dict:
        return plain(self)

    def spec_hash(self) -> str:
        """SHA-256 of the canonical spec JSON (checkpoint identity)."""
        return spec_digest(self.to_dict())


def load_session_spec(data: dict) -> SessionSpec:
    """Build a spec from a plain (JSON-decoded) dict."""
    return dataclass_from_object(
        SessionSpec, data, "session spec", SessionSpecError, timeline=tuple
    )


def load_session_spec_file(path: str) -> SessionSpec:
    return load_session_spec(
        read_json_object(path, "session spec", SessionSpecError)
    )
