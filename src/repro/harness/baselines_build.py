"""The baseline systems (ez-Segway, Central) as :class:`System` records.

Both are wired by :func:`repro.harness.build.build_network`, the same
function that wires P4Update, so update-time comparisons are
apples-to-apples by construction.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.baselines.central import CentralController, CentralSwitch
from repro.baselines.ezsegway import (
    EzSegwayController,
    EzSegwaySwitch,
    RoleMessage,
    congestion_dependency_graph,
)
from repro.harness.build import Deployment, System, build_network
from repro.harness.scenarios import UpdateScenario
from repro.obs.context import ObsContext
from repro.params import SimParams
from repro.topo.graph import Topology
from repro.traffic.flows import Flow


def _next_hops(flow: Flow) -> list[tuple[str, Optional[str]]]:
    path = flow.old_path or []
    return list(zip(path, [*path[1:], None]))


# -- ez-Segway ---------------------------------------------------------------


def _ezsegway_install_path(deployment: Deployment, flow: Flow) -> None:
    for node, next_hop in _next_hops(flow):
        deployment.switches[node].install_initial(flow.flow_id, next_hop, flow.size)


def _ezsegway_set_congestion_aware(deployment: Deployment, enabled: bool) -> None:
    for switch in deployment.switches.values():
        switch.congestion_aware = enabled


def _ezsegway_wire(deployment: Deployment) -> None:
    for edge in deployment.topology.edges:
        deployment.switches[edge.a].set_link(edge.b, edge.capacity)
        deployment.switches[edge.b].set_link(edge.a, edge.capacity)


def _ezsegway_prepare(
    deployment: Deployment, scenario: UpdateScenario, congestion_aware: bool
) -> Optional[dict]:
    """Segmentation happens inside ``update_flow``; the congestion
    dependency graph is the extra centralized cost (Fig. 8b).  Returns
    the static move order, told to every switch per outgoing link."""
    if not congestion_aware:
        return None
    with deployment.network.obs.spans.span("dependency_computation"):
        capacities = {
            frozenset((e.a, e.b)): e.capacity for e in scenario.topology.edges
        }
        move_ranks = congestion_dependency_graph(scenario.flows, capacities)
    per_link: dict[tuple[str, str], list[int]] = {}
    for (_flow_id, (a, b)), rank in move_ranks.items():
        per_link.setdefault((a, b), []).append(rank)
    for (a, b), ranks in per_link.items():
        if a in deployment.switches:
            deployment.switches[a].expect_ranks(b, ranks)
    return move_ranks


def _ezsegway_trigger(
    deployment: Deployment, scenario: UpdateScenario, move_ranks: Optional[dict]
) -> None:
    for flow in scenario.flows:
        deployment.controller.update_flow(
            flow.flow_id, list(flow.new_path or []), move_ranks=move_ranks
        )


def _ezsegway_is_first_update(message: Any) -> bool:
    return isinstance(message, RoleMessage) and message.update_id == 1


def _ezsegway_push_blind(
    deployment: Deployment, flow_id: int, path: list[str]
) -> None:
    # The controller believes the ongoing update done (inconsistent
    # view, [69]): clear the active-update serialisation first.
    deployment.controller.active_updates.pop(flow_id, None)
    deployment.controller.update_flow(flow_id, path)


EZSEGWAY = System(
    builder="repro.harness.baselines_build:build_ezsegway_network",
    switch_class=EzSegwaySwitch,
    controller_class=EzSegwayController,
    install_path=_ezsegway_install_path,
    set_congestion_aware=_ezsegway_set_congestion_aware,
    prepare=_ezsegway_prepare,
    trigger=_ezsegway_trigger,
    wire=_ezsegway_wire,
    is_first_update=_ezsegway_is_first_update,
    push_blind=_ezsegway_push_blind,
)


def build_ezsegway_network(
    topo: Topology,
    params: Optional[SimParams] = None,
    rng: Optional[np.random.Generator] = None,
    controller_name: str = "controller",
    obs: Optional[ObsContext] = None,
) -> Deployment:
    return build_network(EZSEGWAY, topo, params, rng, controller_name, obs)


# -- Central -----------------------------------------------------------------


def _central_install_path(deployment: Deployment, flow: Flow) -> None:
    for node, next_hop in _next_hops(flow):
        deployment.switches[node].install_initial(flow.flow_id, next_hop)


def _central_set_congestion_aware(deployment: Deployment, enabled: bool) -> None:
    # Central plans capacity per round at the controller, not at switches.
    deployment.controller.congestion_aware = enabled


def _central_prepare(
    deployment: Deployment, scenario: UpdateScenario, congestion_aware: bool
) -> None:
    """``update_flow`` plans and starts round 1: nothing to trigger."""
    for flow in scenario.flows:
        deployment.controller.update_flow(flow.flow_id, list(flow.new_path or []))


def _central_extras(deployment: Deployment) -> dict[str, Any]:
    return {"rounds": deployment.controller.rounds_executed}


CENTRAL = System(
    builder="repro.harness.baselines_build:build_central_network",
    switch_class=CentralSwitch,
    controller_class=CentralController,
    install_path=_central_install_path,
    set_congestion_aware=_central_set_congestion_aware,
    prepare=_central_prepare,
    result_extras=_central_extras,
)


def build_central_network(
    topo: Topology,
    params: Optional[SimParams] = None,
    rng: Optional[np.random.Generator] = None,
    controller_name: str = "controller",
    obs: Optional[ObsContext] = None,
) -> Deployment:
    return build_network(CENTRAL, topo, params, rng, controller_name, obs)
