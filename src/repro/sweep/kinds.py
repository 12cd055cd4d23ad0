"""The sweep-kind registry: one record per workload kind.

Everything the fleet layer needs to know about a kind of work — which
spec fields it owns, how a spec is validated and expanded into shards,
what one shard executes and how shard documents aggregate — is one
:class:`SweepKind` record, defined **in the package that owns the
workload** and listed here by import path.  ``repro.sweep`` itself
never names a kind outside :data:`KIND_TABLE`; entries are imported on
first use, so ``import repro.sweep`` pulls in no workload package.

Adding a kind is one file defining a ``SweepKind`` plus one line in
:data:`KIND_TABLE` (see ``docs/SWEEP.md``, "Adding a kind").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, Optional

from repro.loading import resolve_attribute

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sweep.spec import SweepSpec

#: One shard as a kind's ``expand`` yields it: ``(key, seed, payload)``.
ShardPlan = tuple[dict, int, dict]


@dataclass(frozen=True)
class SweepKind:
    """One workload kind, as the fleet layer sees it."""

    name: str
    #: The kind's own spec fields and their defaults, in JSON shape
    #: (a list default declares a list axis, ``None`` an optional
    #: embedded object).  Any other body field is rejected.
    fields: Mapping[str, Any]
    #: Raise ``SweepSpecError`` unless ``spec.body`` is runnable.
    validate: Callable[["SweepSpec"], None]
    #: The ordered ``(key, seed, payload)`` shard plans of a spec.
    expand: Callable[["SweepSpec"], Iterable[ShardPlan]]
    #: Execute one shard payload; deterministic results only, host-time
    #: measurements under ``"_wall"``.
    run_shard: Callable[[dict, Optional[Any]], dict]
    #: Fleet view of the (key-enriched, index-ordered) shard documents.
    aggregate: Callable[[list[dict]], dict]


#: Kind name -> ``module:attribute`` of its :class:`SweepKind`.
KIND_TABLE: dict[str, str] = {
    "experiment": "repro.harness.sweep_kind:EXPERIMENT",
    "prep": "repro.harness.sweep_kind:PREP",
    "chaos": "repro.chaos.sweep_kind:CHAOS",
    "serve": "repro.serve.sweep_kind:SERVE",
    "interference": "repro.analysis.sweep_kind:INTERFERENCE",
    "compete": "repro.algos.sweep_kind:COMPETE",
    "ops": "repro.ops.sweep_kind:OPS",
    "fuzz": "repro.fuzz.sweep_kind:FUZZ",
}

#: The kind of a spec document that names none.
DEFAULT_KIND = "experiment"


def resolve_kind(name: str) -> SweepKind:
    """Import and return the kind registered as ``name`` (``KeyError``
    when nothing is)."""
    kind: SweepKind = resolve_attribute(KIND_TABLE[name])
    return kind
