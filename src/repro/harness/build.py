"""The one deployment class and the one wiring function behind all
three native systems (P4Update, ez-Segway, Central).

:func:`build_network` is the only place a ``Network`` is assembled, so
link latencies, port numbering, control channels, the parameter set and
the order of RNG draws are the same for every system by construction;
what differs is the system's :class:`System` record (P4Update's is
here, the baselines' in :mod:`repro.harness.baselines_build`).

Port numbering: for every node, ports are assigned 1..degree in sorted
neighbour order, deterministically.  The controller is co-located at
the topology's controller node (placed at the centroid for WANs,
paper §9.1); per-switch control-channel latency is the shortest-path
latency from there, or — for fat-trees — a sample from the measured
software-switch distribution (see DESIGN.md §1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from repro.consistency.state import ForwardingState
from repro.core.controller import P4UpdateController
from repro.core.labeling import distance_labels
from repro.core.messages import UIM, UpdateType
from repro.core.registers import LOCAL_DELIVER_PORT
from repro.core.switch import P4UpdateSwitch
from repro.loading import resolve_attribute
from repro.obs.context import NULL_OBS, ObsContext
from repro.params import SimParams
from repro.sim.engine import Engine
from repro.sim.links import ControlChannel, Link
from repro.sim.network import Network
from repro.topo.graph import Topology
from repro.traffic.flows import Flow

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.harness.scenarios import UpdateScenario


def assign_ports(topo: Topology) -> dict[tuple[str, str], int]:
    """Deterministic port map: (node, neighbor) -> local port number."""
    ports: dict[tuple[str, str], int] = {}
    for node in sorted(topo.nodes):
        for i, neighbor in enumerate(sorted(topo.neighbors(node)), start=1):
            ports[(node, neighbor)] = i
    return ports


def _nothing_to_wire(deployment: Deployment) -> None:
    """Default ``System.wire``."""


def _no_extras(deployment: Deployment) -> dict[str, Any]:
    """Default ``System.result_extras``."""
    return {}


@dataclass(frozen=True)
class System:
    """Everything in which one native system differs from the others.

    A record becomes runnable by name through a row of
    :data:`repro.algos.registry.SYSTEMS`.
    """

    #: ``module:attribute`` of the public builder.  Resolved per build,
    #: never captured: the perf ledger and tests wrap it on its module.
    builder: str
    switch_class: Callable[..., Any]
    controller_class: Callable[..., Any]
    #: Write the initial rule of every switch on ``flow.old_path``.
    install_path: Callable[[Deployment, Flow], None]
    set_congestion_aware: Callable[[Deployment, bool], None]
    #: ``run_experiment``'s host-side preparation ``(deployment,
    #: scenario, congestion_aware)``; ``trigger`` gets what it returns.
    prepare: Callable[[Deployment, UpdateScenario, bool], Any]
    #: Send the prepared updates (the ``uim_fanout`` span); ``None``
    #: when ``prepare`` already started them.
    trigger: Optional[Callable[[Deployment, UpdateScenario, Any], None]] = None
    #: What is left to wire once switches, links, controller and
    #: control channels stand.
    wire: Callable[[Deployment], None] = _nothing_to_wire
    #: System-specific ``ExperimentResult`` fields (``alarms``, ``rounds``).
    result_extras: Callable[[Deployment], dict[str, Any]] = _no_extras
    # The §4 demonstrations (Fig. 2 / Fig. 4) pit P4Update against
    # ez-Segway only: a system leaving these ``None`` is not part of them.
    #: Does ``message`` belong to a flow's first update after rollout?
    is_first_update: Optional[Callable[[Any], bool]] = None
    #: Push an update the way a controller with a stale view does: at
    #: once, whatever it believes is still in flight (§4.1).
    push_blind: Optional[Callable[[Deployment, int, list[str]], None]] = None

    def build(
        self,
        topo: Topology,
        params: Optional[SimParams] = None,
        obs: Optional[ObsContext] = None,
    ) -> Deployment:
        """A deployment through the system's public builder name."""
        deployment: Deployment = resolve_attribute(self.builder)(
            topo, params=params, obs=obs
        )
        return deployment


@dataclass
class Deployment:
    """A wired-up simulated network ready to run experiments."""

    system: System
    topology: Topology
    network: Network
    controller: Any
    switches: dict[str, Any]
    forwarding_state: ForwardingState
    params: SimParams
    #: The layer every update prepared on the system's behalf is
    #: forced to (:func:`repro.algos.registry.build_system` sets it from
    #: the row); ``None`` leaves P4Update its §7.5 selection rule.
    update_type: Optional[UpdateType] = None

    def install_flow(self, flow: Flow) -> None:
        """Bootstrap a flow's initial (version 1) deployment.

        Writes the rules of every switch on the old path directly (the
        controller's initial rollout) and registers the flow with the
        controller and the consistency checker's ground truth.
        """
        if flow.old_path is None:
            raise ValueError(f"flow {flow.flow_id} has no initial path")
        path = flow.old_path
        self.forwarding_state.register_flow(
            flow.flow_id, path[0], path[-1], flow.size
        )
        self.system.install_path(self, flow)
        self.controller.register_flow(flow)

    def set_congestion_aware(self, enabled: bool) -> None:
        self.system.set_congestion_aware(self, enabled)

    def telemetry(self) -> dict:
        """Aggregated per-deployment counters (the kind of statistics
        an operator would scrape from the switches' registers).
        P4Update deployments only: it reads the P4 program's stats."""
        totals = {
            "packets_processed": 0,
            "packets_dropped": 0,
            "resubmissions": 0,
            "installs_completed": 0,
            "capacity_deferrals": 0,
            "unm_processed": 0,
            "unm_waits": 0,
            "unm_rejects": 0,
            "probes_delivered": 0,
            "probes_ttl_expired": 0,
            "alarms": 0,
        }
        per_switch: dict[str, dict] = {}
        for name, switch in self.switches.items():
            stats = switch.program.stats
            row = {
                "packets_processed": switch.packets_processed,
                "packets_dropped": switch.packets_dropped,
                "resubmissions": switch.resubmissions,
                "installs_completed": switch.installs_completed,
                "capacity_deferrals": stats["capacity_deferrals"],
                "unm_processed": stats["unm_processed"],
                "unm_waits": stats["unm_waits"],
                "unm_rejects": stats["unm_rejects"],
                "probes_delivered": stats["probes_delivered"],
                "probes_ttl_expired": stats["probes_ttl_expired"],
                "alarms": len(switch.alarms),
            }
            per_switch[name] = row
            for key, value in row.items():
                totals[key] += value
        return {"total": totals, "per_switch": per_switch}

    def run(self, until: Optional[float] = None) -> None:
        horizon = until if until is not None else self.params.max_sim_time_ms
        self.network.engine.run(until=horizon)


def build_network(
    system: System,
    topo: Topology,
    params: Optional[SimParams] = None,
    rng: Optional[np.random.Generator] = None,
    controller_name: str = "controller",
    obs: Optional[ObsContext] = None,
) -> Deployment:
    """Construct switches, links and control channels for ``topo``.

    ``obs`` instruments the whole deployment (message counters at the
    network, the counters ``repro.obs.derived`` reads off the trace,
    scheduler admit/defer counters, controller lifecycle counters).  The
    default is the shared no-op context.

    The draws from ``rng`` are part of every committed signature: one
    seed per switch in sorted node order, one for the controller, then
    (fat-trees only) one control latency per node in sorted order.
    """
    params = params if params is not None else SimParams()
    rng = rng if rng is not None else params.rng()
    obs = obs if obs is not None else NULL_OBS
    if topo.controller is None:
        topo.place_controller_at_centroid()

    network = Network(Engine(), obs=obs)
    obs.bind(network)
    forwarding_state = ForwardingState()

    switches: dict[str, Any] = {}
    for name in sorted(topo.nodes):
        switch = system.switch_class(
            name, params=params,
            rng=np.random.default_rng(rng.integers(0, 2**63)),
            forwarding_state=forwarding_state,
        )
        switch.obs = obs
        network.add_node(switch)
        switches[name] = switch

    ports = assign_ports(topo)
    for edge in topo.edges:
        network.add_link(
            Link(
                node_a=edge.a, port_a=ports[(edge.a, edge.b)],
                node_b=edge.b, port_b=ports[(edge.b, edge.a)],
                latency_ms=edge.latency_ms, capacity=edge.capacity,
            )
        )
        forwarding_state.set_capacity(edge.a, edge.b, edge.capacity)

    controller = system.controller_class(
        controller_name, topo, params=params,
        rng=np.random.default_rng(rng.integers(0, 2**63)),
    )
    controller.obs = obs
    network.add_node(controller)
    network.set_controller(controller_name)

    is_fattree = topo.name.startswith("fattree")
    for name in sorted(topo.nodes):
        if is_fattree:
            latency = params.fattree_control_latency.sample(rng)
        else:
            latency = topo.control_latency(name)
        network.add_control_channel(ControlChannel(name, latency_ms=latency))

    deployment = Deployment(
        system=system, topology=topo, network=network, controller=controller,
        switches=switches, forwarding_state=forwarding_state, params=params,
    )
    system.wire(deployment)
    return deployment


# -- P4Update ----------------------------------------------------------------


def _p4update_install_path(deployment: Deployment, flow: Flow) -> None:
    path = flow.old_path or []
    distances = distance_labels(path)
    for i, node in enumerate(path):
        if node == path[-1]:
            port = LOCAL_DELIVER_PORT
        else:
            port = deployment.network.port_towards(node, path[i + 1])
        deployment.switches[node].install_initial_flow(
            flow.flow_id, distances[node], port, flow.size
        )


def _p4update_set_congestion_aware(deployment: Deployment, enabled: bool) -> None:
    for switch in deployment.switches.values():
        switch.program.congestion_aware = enabled


def _p4update_wire(deployment: Deployment) -> None:
    for name, switch in deployment.switches.items():
        switch.program.scheduler.attach_obs(deployment.network.obs, name)
        switch.configure_ports()


def _p4update_prepare(
    deployment: Deployment, scenario: UpdateScenario, congestion_aware: bool
) -> list:
    return [
        deployment.controller.prepare_update(
            flow.flow_id, list(flow.new_path or []), deployment.update_type,
            congestion_aware=congestion_aware,
        )
        for flow in scenario.flows
    ]


def _p4update_trigger(
    deployment: Deployment, scenario: UpdateScenario, prepared: list
) -> None:
    for update in prepared:
        deployment.controller.push_update(update)


def _p4update_extras(deployment: Deployment) -> dict[str, Any]:
    return {"alarms": len(deployment.controller.alarms)}


def _p4update_is_first_update(message: Any) -> bool:
    # The initial rollout is version 1.
    return isinstance(message, UIM) and message.version == 2


def _p4update_push_blind(
    deployment: Deployment, flow_id: int, path: list[str]
) -> None:
    # P4Update needs no forgetting: versions order concurrent updates.
    # The §4.1 demonstration is single-layer by design.
    deployment.controller.update_flow(flow_id, path, UpdateType.SINGLE)


P4UPDATE = System(
    builder="repro.harness.build:build_p4update_network",
    switch_class=P4UpdateSwitch,
    controller_class=P4UpdateController,
    install_path=_p4update_install_path,
    set_congestion_aware=_p4update_set_congestion_aware,
    prepare=_p4update_prepare,
    trigger=_p4update_trigger,
    wire=_p4update_wire,
    result_extras=_p4update_extras,
    is_first_update=_p4update_is_first_update,
    push_blind=_p4update_push_blind,
)


def build_p4update_network(
    topo: Topology,
    params: Optional[SimParams] = None,
    rng: Optional[np.random.Generator] = None,
    controller_name: str = "controller",
    obs: Optional[ObsContext] = None,
) -> Deployment:
    """A P4Update deployment over ``topo`` (see :func:`build_network`)."""
    return build_network(P4UPDATE, topo, params, rng, controller_name, obs)
