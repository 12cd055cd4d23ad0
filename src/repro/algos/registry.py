"""The update-strategy registry.

Builders are named by ``module:attribute`` path and imported when a
runtime is built, so that importing :mod:`repro.algos.registry` (which
:class:`repro.serve.spec.ServeSpec` does during validation) never drags
the harness/baseline stacks in — and never forms an import cycle with
:mod:`repro.serve`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.algos.base import StrategyInfo
from repro.loading import resolve_attribute

__all__ = [
    "STRATEGIES",
    "DEFAULT_STRATEGY",
    "get_strategy",
    "strategy_names",
    "build_strategy_runtime",
]

DEFAULT_STRATEGY = "p4update"


STRATEGIES: dict[str, StrategyInfo] = {
    info.name: info
    for info in (
        StrategyInfo(
            name="p4update",
            description=(
                "P4Update with the §7.5 SL/DL selection rule (the repo's "
                "default deployment, byte-identical to pre-registry runs)"
            ),
            builder="repro.harness.build:build_p4update_network",
            decentralized=True,
        ),
        StrategyInfo(
            name="p4update-sl",
            description="P4Update forced to single-layer (SL) updates",
            builder="repro.algos.p4u:build_single_layer_network",
            decentralized=True,
        ),
        StrategyInfo(
            name="p4update-dl",
            description="P4Update forced to dual-layer (DL) updates",
            builder="repro.algos.p4u:build_dual_layer_network",
            decentralized=True,
        ),
        StrategyInfo(
            name="ezsegway",
            description=(
                "ez-Segway decentralized segment flipping behind the "
                "strategy facade (capacity deferrals retry forever — "
                "deadlocked orders surface as unfinished requests)"
            ),
            builder="repro.algos.baseline:build_ezsegway_facade",
            decentralized=True,
        ),
        StrategyInfo(
            name="central",
            description=(
                "Dionysus-style central round scheduler behind the "
                "strategy facade (a stuck round surfaces as unfinished)"
            ),
            builder="repro.algos.baseline:build_central_facade",
        ),
        StrategyInfo(
            name="augmented",
            description=(
                "P4Update plus capacity augmentation: when the target "
                "path would transiently overcommit a link, the flow is "
                "detoured over a helper path with spare capacity first "
                "(Henzinger/Pourdamghani augmentation-speed tradeoff)"
            ),
            builder="repro.algos.augmented:build_augmented_network",
            decentralized=True,
            uses_augmentation=True,
        ),
        StrategyInfo(
            name="synthesis",
            description=(
                "P4Update under a greedy ordering-synthesis gate: the "
                "interference analyzer's happens-before conflicts are "
                "topologically ordered by submission, so conflicting "
                "updates install strictly in sequence (McClurg-style "
                "synthesis baseline)"
            ),
            builder="repro.algos.synthesis:build_synthesis_network",
        ),
    )
}


def strategy_names() -> list[str]:
    """Registered strategy names, sorted for stable error messages."""
    return sorted(STRATEGIES)


def get_strategy(name: str) -> StrategyInfo:
    try:
        return STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown strategy {name!r}; registered: {', '.join(strategy_names())}"
        ) from None


def build_strategy_runtime(
    name: str, topology: Any, params: Any = None, obs: Optional[Any] = None
) -> Any:
    """Build the deployment for ``name`` over ``topology``.

    The returned object satisfies :class:`repro.algos.base.StrategyRuntime`.
    """
    build = resolve_attribute(get_strategy(name).builder)
    return build(topology, params=params, obs=obs)
