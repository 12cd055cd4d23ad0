"""P4Update strategy adapters: forced single-layer / dual-layer.

The stock deployment applies the §7.5 selection rule per update; the
``p4update-sl`` / ``p4update-dl`` strategies pin every update to one
layer so the serve harness can compare the two mechanisms head-to-head
on identical workloads (the Fig. 7 axis, as a service strategy).
"""

from __future__ import annotations

import functools
from typing import Any, Optional

from repro.algos.base import _Delegating
from repro.core.controller import P4UpdateController, PreparedUpdate
from repro.core.messages import UpdateType
from repro.harness.build import Deployment, build_p4update_network
from repro.obs.context import ObsContext
from repro.params import SimParams
from repro.topo.graph import Topology


class _ForcedTypeController(_Delegating):
    """Controller proxy pinning :meth:`prepare_update` to one layer.

    Everything else (push, UFM handling, recovery, listeners) runs on
    the wrapped :class:`P4UpdateController`; internal paths such as the
    §11 reroute (which deliberately uses SL) are untouched because they
    call the inner controller directly.
    """

    def __init__(self, inner: P4UpdateController, update_type: UpdateType) -> None:
        self._inner = inner
        self._update_type = update_type

    def prepare_update(
        self,
        flow_id: int,
        new_path: list[str],
        update_type: Optional[UpdateType] = None,
        **kwargs: Any,
    ) -> PreparedUpdate:
        forced = update_type if update_type is not None else self._update_type
        return self._inner.prepare_update(
            flow_id, new_path, update_type=forced, **kwargs
        )


def build_forced_type_network(
    topo: Topology,
    update_type: UpdateType,
    params: Optional[SimParams] = None,
    obs: Optional[ObsContext] = None,
) -> Deployment:
    """A stock P4Update deployment whose controller always prepares
    ``update_type`` updates."""
    deployment = build_p4update_network(topo, params=params, obs=obs)
    if update_type is UpdateType.DUAL:
        # Every update is dual-layer, so back-to-back DL on one flow is
        # the norm — enable the App. C saturated-segment-id extension
        # or the second update of any flow hits the §11
        # consecutive-dual drop and stalls.
        for switch in deployment.switches.values():
            switch.program.allow_consecutive_dual = True
    deployment.controller = _ForcedTypeController(deployment.controller, update_type)
    return deployment


#: The ``p4update-sl`` / ``p4update-dl`` strategy builders.
build_single_layer_network = functools.partial(
    build_forced_type_network, update_type=UpdateType.SINGLE
)
build_dual_layer_network = functools.partial(
    build_forced_type_network, update_type=UpdateType.DUAL
)
