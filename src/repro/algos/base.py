"""Strategy protocol for pluggable consistent-update algorithms.

``repro.algos`` turns the serve layer into a testbed for the
consistent-updates design space: every algorithm (P4Update SL/DL,
ez-Segway, Dionysus-style Central, and the new augmentation/synthesis
strategies) is wrapped behind one runtime surface the
:class:`~repro.serve.orchestrator.ServiceOrchestrator` already speaks.

The contract has three parts:

1. **prepare**: ``controller.prepare_update(flow_id, new_path)``
   returns an opaque prepared object carrying a ``.version`` — the
   handle completion/abort notifications are matched against.
2. **install/verify**: ``controller.push_update(prepared)`` hands the
   update to the algorithm; installation and (for P4Update) local
   verification proceed inside the simulation.
3. **completion semantics**: the controller fires every callback in
   ``controller.update_listeners`` as ``listener(event, flow_id,
   version)`` with ``event`` in ``{"completed", "aborted",
   "reissued", "parked"}``.  ``flow_db[flow_id]`` exposes
   ``current_path`` / ``pending_version`` / ``parked`` so the
   orchestrator and live checker can observe converged state.

Strategies that cannot natively speak this contract (ez-Segway,
Central) are adapted by facades in :mod:`repro.algos.baseline`;
genuinely new behaviour lives in :mod:`repro.algos.augmented`
(helper-path augmentation) and :mod:`repro.algos.synthesis`
(greedy happens-before ordering).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    List,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)


@runtime_checkable
class StrategyController(Protocol):
    """What the service orchestrator needs from a strategy's controller."""

    name: str
    flow_db: Mapping[int, Any]
    update_listeners: List[Callable[[str, int, Optional[int]], None]]

    def control_service_time(self) -> float:
        """Per-message service time at the controller (control-plane model)."""

    def control_queue_delay(self) -> float:
        """Backlog wait behind background control traffic."""

    def prepare_update(self, flow_id: int, new_path: list) -> Any:
        """Compute the plan for rerouting ``flow_id``; returns an object
        with a ``.version`` attribute."""

    def push_update(self, prepared: Any) -> None:
        """Start installing a prepared update."""


@runtime_checkable
class StrategyRuntime(Protocol):
    """Deployment surface ``run_service`` drives.

    Mirrors :class:`repro.harness.build.Deployment`; facade
    deployments delegate unknown attributes to the wrapped deployment
    so chaos event application (which only touches ``.network`` and
    ``.params``) works unchanged.
    """

    topology: Any
    network: Any
    controller: Any
    forwarding_state: Any
    params: Any

    def install_flow(self, flow: Any) -> None:
        """Install a flow's initial path and register it with the controller."""

    def set_congestion_aware(self, enabled: bool) -> None:
        """Toggle §7.4-style congestion awareness (no-op where unsupported)."""

    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation until quiescence or ``until``."""



@dataclass(frozen=True)
class StrategyInfo:
    """One registered update strategy with its capability flags.

    ``decentralized`` marks algorithms whose install decisions are
    taken in the data plane / at switches rather than by a central
    sequencer; ``uses_augmentation`` marks strategies that may route a
    flow through a temporary helper path to unlock otherwise-blocked
    update orders.
    """

    name: str
    description: str
    #: ``module:attribute`` of ``builder(topology, params=None, obs=None)
    #: -> StrategyRuntime``, resolved by ``build_strategy_runtime``.
    builder: str
    decentralized: bool = False
    uses_augmentation: bool = False

    def capabilities(self) -> dict[str, bool]:
        return {
            "decentralized": self.decentralized,
            "uses_augmentation": self.uses_augmentation,
        }

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            **self.capabilities(),
        }


class _Delegating:
    """Mixin: forward unknown attribute reads to ``self._inner``.

    Keeps facade deployments/controllers compatible with every
    consumer that only *reads* the wrapped object (chaos event
    application, telemetry, the live checker's trace taps).
    """

    _inner: Any

    def __getattr__(self, item: str) -> Any:
        return getattr(self._inner, item)


def path_edges(path: Sequence[str]) -> tuple[tuple[str, str], ...]:
    """Directed edges of a node path (shared by augmentation/synthesis)."""
    return tuple(zip(path, path[1:]))
