"""The one table of update systems.

Every name a caller can run — ``run_experiment``, the Fig. 2/4/7
drivers, the ``experiment`` sweep kind, ``run_service``, ``compete``,
``duel`` and the fuzz lanes — is one :class:`SystemRow` of
:data:`SYSTEMS`, and every deployment is built by :func:`build_system`.
Adding a system is one row plus its module.

A row names its implementation by ``module:attribute`` strings and its
forced layer by the ``UpdateType`` member name, all resolved when a
deployment is built, so importing this module (which
:class:`repro.serve.spec.ServeSpec` does during validation) pulls in no
implementation module, never forms an import cycle with
:mod:`repro.serve`, and a wrapper patched onto a builder's module (the
perf ledger's spans, a test's monkeypatch) is what runs.

Every built deployment's controller speaks the update contract of
:class:`repro.core.contract.UpdateController` (prepare, push,
completion listeners, Flow DB queries); a row's forced layer is the
``update_type`` callers pass to ``prepare_update`` / ``update_flow``
(``deployment.update_type``).  It covers the updates callers prepare;
P4Update's own §11 reroutes and re-triggers keep the §7.5 rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.loading import resolve_attribute

__all__ = [
    "SYSTEMS",
    "SystemRow",
    "build_system",
    "system_names",
    "system_row",
]


@dataclass(frozen=True)
class SystemRow:
    """One update system: a native ``System`` record, the layer every
    prepared update is forced to, and an optional wrapper.

    ``decentralized`` marks systems whose install decisions are taken
    in the data plane / at switches rather than by a central sequencer;
    ``uses_augmentation`` marks systems that may route a flow through a
    temporary helper path to unlock otherwise-blocked update orders.
    """

    name: str
    description: str
    #: ``module:attribute`` of the :class:`repro.harness.build.System`.
    native: str
    #: ``UpdateType`` member name every prepared update is forced to
    #: (``"SINGLE"`` / ``"DUAL"``); ``None`` keeps the §7.5 rule.
    forced_layer: Optional[str] = None
    #: ``module:attribute`` of ``wrapper(deployment) -> deployment``.
    #: A wrapper with a ``dispatch_gate`` orders updates at dispatch,
    #: which only the service orchestrator does: such a row is serve-only.
    wrapper: Optional[str] = None
    decentralized: bool = False
    uses_augmentation: bool = False

    def capabilities(self) -> dict[str, bool]:
        return {
            "decentralized": self.decentralized,
            "uses_augmentation": self.uses_augmentation,
        }

    def system(self) -> Any:
        """The native ``System`` record."""
        return resolve_attribute(self.native)

    def update_type(self) -> Any:
        """The forced ``UpdateType``, or ``None``."""
        if self.forced_layer is None:
            return None
        from repro.core.messages import UpdateType

        return UpdateType[self.forced_layer]

    def orders_at_dispatch(self) -> bool:
        """Does the wrapper gate dispatch (so only ``run_service`` can
        run the row)?"""
        return self.wrapper is not None and hasattr(
            resolve_attribute(self.wrapper), "dispatch_gate"
        )


SYSTEMS: dict[str, SystemRow] = {
    row.name: row
    for row in (
        SystemRow(
            name="p4update",
            description=(
                "P4Update with the §7.5 SL/DL selection rule (the repo's "
                "default deployment, byte-identical to pre-registry runs)"
            ),
            native="repro.harness.build:P4UPDATE",
            decentralized=True,
        ),
        SystemRow(
            name="p4update-sl",
            description="P4Update forced to single-layer (SL) updates",
            native="repro.harness.build:P4UPDATE",
            forced_layer="SINGLE",
            decentralized=True,
        ),
        SystemRow(
            name="p4update-dl",
            description="P4Update forced to dual-layer (DL) updates",
            native="repro.harness.build:P4UPDATE",
            forced_layer="DUAL",
            decentralized=True,
        ),
        SystemRow(
            name="ezsegway",
            description=(
                "ez-Segway decentralized segment flipping behind the "
                "strategy facade (capacity deferrals retry forever — "
                "deadlocked orders surface as unfinished requests)"
            ),
            native="repro.harness.baselines_build:EZSEGWAY",
            decentralized=True,
        ),
        SystemRow(
            name="central",
            description=(
                "Dionysus-style central round scheduler behind the "
                "strategy facade (a stuck round surfaces as unfinished)"
            ),
            native="repro.harness.baselines_build:CENTRAL",
        ),
        SystemRow(
            name="augmented",
            description=(
                "P4Update plus capacity augmentation: when the target "
                "path would transiently overcommit a link, the flow is "
                "detoured over a helper path with spare capacity first "
                "(Henzinger/Pourdamghani augmentation-speed tradeoff)"
            ),
            native="repro.harness.build:P4UPDATE",
            wrapper="repro.algos.augmented:augment",
            decentralized=True,
            uses_augmentation=True,
        ),
        SystemRow(
            name="synthesis",
            description=(
                "P4Update under a greedy ordering-synthesis gate: the "
                "interference analyzer's happens-before conflicts are "
                "topologically ordered by submission, so conflicting "
                "updates install strictly in sequence (McClurg-style "
                "synthesis baseline)"
            ),
            native="repro.harness.build:P4UPDATE",
            wrapper="repro.algos.synthesis:SynthesisDeployment",
        ),
    )
}


def system_names() -> list[str]:
    """Registered system names, sorted for stable error messages."""
    return sorted(SYSTEMS)


def system_row(name: str) -> SystemRow:
    try:
        return SYSTEMS[name]
    except KeyError:
        raise ValueError(
            f"unknown system {name!r}; registered: {', '.join(system_names())}"
        ) from None


def build_system(
    name: str, topology: Any, params: Any = None, obs: Optional[Any] = None
) -> Any:
    """The deployment of system ``name`` over ``topology``: its native
    system's public builder, the row's forced layer recorded as
    ``deployment.update_type``, then the row's wrapper."""
    row = system_row(name)
    deployment = row.system().build(topology, params=params, obs=obs)
    deployment.update_type = row.update_type()
    if row.forced_layer == "DUAL":
        # Every update is dual-layer, so back-to-back DL on one flow is
        # the norm — enable the App. C saturated-segment-id extension
        # or the second update of any flow hits the §11
        # consecutive-dual drop and stalls.
        for switch in deployment.switches.values():
            switch.program.allow_consecutive_dual = True
    if row.wrapper is not None:
        deployment = resolve_attribute(row.wrapper)(deployment)
    return deployment
