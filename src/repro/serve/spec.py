"""Declarative update-service specifications.

A serve spec is a plain JSON document describing one tenant-facing
service run: the topology and flow population, the request workload
(open- or closed-loop), the admission policy (queue depth, token
bucket, shed policy) and the orchestration policy (conflict handling,
in-flight cap).  Example::

    {
      "name": "smoke",
      "topology": "b4",
      "seed": 0,
      "mode": "open",
      "flows": 8,
      "requests": 60,
      "arrival_rate_per_s": 400.0,
      "queue_depth": 16,
      "shed_policy": "reject"
    }

Everything runs on simulated time; the same spec + seed produces the
bit-identical per-request record list (asserted by ``tests/serve/``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chaos.campaign import TopoEvent, validate_events_against_topology
from repro.loading import (
    dataclass_from_object,
    plain,
    read_json_object,
    require_object,
)
from repro.params import check_overrides
from repro.topo import TOPOLOGIES

SERVE_MODES = ("open", "closed")
SHED_POLICIES = ("reject", "park")
CONFLICT_POLICIES = ("serialize", "merge")
SWITCH_CONFLICT_POLICIES = ("concurrent", "serialize")
#: Admission-time static interference gate (repro.analysis.interference):
#: ``warn`` records conflicts and dispatches anyway, ``serialize``
#: holds a conflicting request until the in-flight update it races
#: with completes, ``reject`` sheds it.
INTERFERENCE_GATES = ("off", "warn", "serialize", "reject")
#: The allowed values of each enumerated spec field.
_CHOICES = {
    "mode": SERVE_MODES,
    "shed_policy": SHED_POLICIES,
    "conflict_policy": CONFLICT_POLICIES,
    "switch_conflict": SWITCH_CONFLICT_POLICIES,
    "static_interference": INTERFERENCE_GATES,
}


class ServeSpecError(ValueError):
    """Raised for malformed serve specifications."""


@dataclass(frozen=True)
class ServeSpec:
    """A validated update-service description (see module docstring)."""

    name: str
    topology: str = "b4"
    seed: int = 0
    description: str = ""
    # -- workload ----------------------------------------------------------
    mode: str = "open"
    flows: int = 16                    # size of the flow population
    requests: int = 100                # total requests to generate
    arrival_rate_per_s: float = 200.0  # open loop: Poisson arrival rate
    clients: int = 4                   # closed loop: concurrent clients
    think_time_ms: float = 50.0        # closed loop: wait between requests
    mean_flow_size: float = 1.0
    # -- admission ---------------------------------------------------------
    queue_depth: int = 64              # bounded admission queue
    rate_per_s: float = 0.0            # token-bucket refill (0 = unlimited)
    burst: int = 8                     # token-bucket capacity
    shed_policy: str = "reject"        # what to do with overflow
    # -- orchestration -----------------------------------------------------
    conflict_policy: str = "merge"     # same-flow conflicts: serialize|merge
    switch_conflict: str = "concurrent"  # shared-switch conflicts
    max_in_flight: int = 0             # concurrent updates cap (0 = no cap)
    # Static interference gate: check each dispatch candidate's
    # footprint against every in-flight update (off|warn|serialize|
    # reject).  ``serialize`` injects the missing ordering instead of
    # shedding work.
    static_interference: str = "off"
    # §7.4 data-plane congestion scheduler on the switches.  Off, a
    # transient overcommit really overloads links (the live checker
    # reports it) — the workload the interference analyzer predicts
    # statically.
    congestion_aware: bool = True
    # Uniform link-capacity override (0 = keep topology defaults).
    link_capacity: float = 0.0
    # -- run ---------------------------------------------------------------
    horizon_ms: float = 120000.0
    params: dict = field(default_factory=dict)
    events: tuple = ()                 # chaos TopoEvent dicts
    obs: bool = False
    # Export per-request critical-path latency attribution
    # (repro.obs.causal, read off the trace every run records).  Purely
    # additive: the simulated trace stays bit-identical to a
    # causal=False run.
    causal: bool = False
    # Update algorithm driving the run (repro.algos registry).  The
    # default "p4update" keeps the stock deployment — byte-identical
    # to pre-registry runs.
    strategy: str = "p4update"

    def __post_init__(self) -> None:
        if not self.name:
            raise ServeSpecError("serve spec needs a non-empty 'name'")
        if self.topology not in TOPOLOGIES:
            raise ServeSpecError(
                f"unknown topology {self.topology!r}; known: {sorted(TOPOLOGIES)}"
            )
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ServeSpecError(
                    f"unknown {name} {value!r}; expected one of {choices}"
                )
        if self.flows < 1:
            raise ServeSpecError("serve spec needs flows >= 1")
        if self.requests < 1:
            raise ServeSpecError("serve spec needs requests >= 1")
        if self.mode == "open" and self.arrival_rate_per_s <= 0:
            raise ServeSpecError("open-loop spec needs arrival_rate_per_s > 0")
        if self.mode == "closed" and self.clients < 1:
            raise ServeSpecError("closed-loop spec needs clients >= 1")
        if self.queue_depth < 1:
            raise ServeSpecError("serve spec needs queue_depth >= 1")
        if self.rate_per_s < 0 or self.burst < 1:
            raise ServeSpecError(
                "token bucket needs rate_per_s >= 0 and burst >= 1"
            )
        if self.max_in_flight < 0:
            raise ServeSpecError("max_in_flight must be >= 0 (0 = no cap)")
        if self.link_capacity < 0:
            raise ServeSpecError("link_capacity must be >= 0 (0 = default)")
        if self.horizon_ms <= 0:
            raise ServeSpecError("serve spec needs horizon_ms > 0")
        # Lazy import: repro.algos stays import-light (builders resolve
        # their implementations on first build, not here).
        from repro.algos.registry import system_names

        if self.strategy not in system_names():
            raise ServeSpecError(
                f"unknown strategy {self.strategy!r}; "
                f"registered: {system_names()}"
            )
        check_overrides(self.params, ServeSpecError)
        # Parsed and checked against the topology here, so a bad event
        # is a load-time error and never a mid-run KeyError.
        try:
            validate_events_against_topology(
                self.topo_events(), self.topology, context="events"
            )
        except (TypeError, ValueError) as exc:
            raise ServeSpecError(f"events: {exc}") from None

    def topo_events(self) -> tuple[TopoEvent, ...]:
        """``events`` as :class:`~repro.chaos.campaign.TopoEvent`s."""
        return tuple(
            TopoEvent(**require_object(e, "event", TypeError))
            for e in self.events
        )

    def to_dict(self) -> dict:
        return plain(self)


def load_serve_spec(data: dict) -> ServeSpec:
    """Build a spec from a plain (JSON-decoded) dict."""
    return dataclass_from_object(
        ServeSpec, data, "serve spec", ServeSpecError, events=tuple
    )


def load_serve_spec_file(path: str) -> ServeSpec:
    return load_serve_spec(read_json_object(path, "serve spec", ServeSpecError))
