"""The fuzz-lane registry: one record per lane.

Everything the fuzzer knows about one surface it attacks — how a fresh
payload is drawn, which mutations evolve a retained one, which
simplifications the shrinker may try and which oracle classifies it —
is one :class:`FuzzLane` record, defined once in
``repro/fuzz/lanes/<lane>.py`` and listed here by import path.  The
generic layers (:mod:`repro.fuzz.gen`, :mod:`~repro.fuzz.oracles`,
:mod:`~repro.fuzz.shrink`, the campaign, the corpus, the CLI) never
name a lane; entries are imported on first use.

Adding a lane is one file defining a ``FuzzLane`` plus one line in
:data:`LANE_TABLE` (see ``docs/FUZZING.md``, "Adding a lane").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

import numpy as np

from repro.loading import resolve_attribute

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fuzz.oracles import OracleVerdict

#: ``apply(payload, donor payload or None, rng)`` edits ``payload`` — a
#: private deep copy of the base case's — in place; the donor's payload
#: is shared with the corpus and must not be modified.
MutationApply = Callable[[dict, Optional[dict], np.random.Generator], None]

#: ``(op name, apply, needs_donor)``: a ``needs_donor`` op is only
#: eligible when the campaign offers a donor case of the same lane.
Mutation = tuple[str, MutationApply, bool]


@dataclass(frozen=True)
class FuzzLane:
    """One fuzzed surface, as the generic fuzz layers see it."""

    name: str
    #: Draw a fresh JSON-safe payload from the per-case stream.
    generate: Callable[[np.random.Generator], dict]
    #: The lane's mutation ops.  ``mutate_case`` draws one index into
    #: the eligible subset **in this order**, so reordering or inserting
    #: an op changes every campaign that mutates this lane.
    mutations: tuple[Mutation, ...]
    #: Candidate simplifications of a payload, most aggressive first;
    #: deterministic, no randomness.
    shrink_candidates: Callable[[dict], Iterator[dict]]
    #: Classify a payload (may raise: ``classify`` contains it).
    oracle: Callable[[dict], "OracleVerdict"]


#: Lane name -> ``module:attribute`` of its :class:`FuzzLane`.  The
#: order is the order campaigns cycle through the lanes.
LANE_TABLE: dict[str, str] = {
    "plan": "repro.fuzz.lanes.plan:PLAN",
    "chaos": "repro.fuzz.lanes.chaos:CHAOS",
    "serve": "repro.fuzz.lanes.serve:SERVE",
    "divergence": "repro.fuzz.lanes.divergence:DIVERGENCE",
    "ops": "repro.fuzz.lanes.ops:OPS",
    "compete": "repro.fuzz.lanes.compete:COMPETE",
}


def require_lanes(
    names: Iterable[str], error: type[Exception] = ValueError
) -> None:
    """Raise ``error`` naming the known lanes unless every name is one."""
    unknown = sorted(set(names) - set(LANE_TABLE))
    if unknown:
        raise error(f"unknown fuzz kinds {unknown}; known: {tuple(LANE_TABLE)}")


def resolve_lane(name: str) -> FuzzLane:
    """Import and return the lane registered as ``name``."""
    require_lanes((name,))
    lane: FuzzLane = resolve_attribute(LANE_TABLE[name])
    return lane
