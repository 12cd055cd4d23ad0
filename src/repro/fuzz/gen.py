"""Fuzz cases and the table-driven generate / mutate steps.

A :class:`FuzzCase` is one self-contained, JSON-serialisable input to
the platform's oracles (:mod:`repro.fuzz.oracles`): the name of the
lane that owns it plus a payload only that lane interprets.  What the
lanes are, how each draws a payload and which mutations evolve it is
defined once per lane under :mod:`repro.fuzz.lanes`; this module holds
what every lane shares.

Everything is deterministic in ``(seed, index)``: every draw comes
from ``numpy.random.default_rng([seed, index, stream, _FUZZ_STREAM])``
with a stream tag disjoint from the advgen/scenario/serve/fault
streams.  Mutations evolve retained corpus cases without ever touching
hidden global state, so campaigns replay bit-identically.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.chaos.campaign import (
    SpecTopologyError,
    TopoEvent,
    validate_events_against_topology,
)
from repro.fuzz.lanes import LANE_TABLE, require_lanes, resolve_lane

#: RNG stream tag, disjoint from every other subsystem stream
#: (advgen 0xADF6, scenario 0x5CE2, serve 0x5EF1/0x5EA2, faults 0xFA017).
_FUZZ_STREAM = 0xF422

#: The in-tree lanes in table order: a campaign's default ``kinds``.
FUZZ_KINDS = tuple(LANE_TABLE)


@dataclass(frozen=True)
class FuzzCase:
    """One generated input: a kind tag plus a JSON-safe payload."""

    kind: str
    name: str
    seed: int
    payload: dict = field(repr=False)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)  # deep-copies the payload


def case_from_dict(data: dict) -> FuzzCase:
    """Inverse of :meth:`FuzzCase.to_dict` (validates the kind)."""
    kind = str(data["kind"])
    require_lanes((kind,))
    return FuzzCase(
        kind=kind,
        name=str(data.get("name", kind)),
        seed=int(data.get("seed", 0)),
        payload=copy.deepcopy(dict(data["payload"])),
    )


def canonical_payload(payload: dict) -> str:
    """Canonical JSON of a payload — the size/identity basis."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def case_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    """The deterministic per-case generator: stream 0 belongs to
    :func:`generate_case`, stream 1 to the campaign driver."""
    return np.random.default_rng([seed, index, stream, _FUZZ_STREAM])


# -- what lane generators share ----------------------------------------------


def pick(rng: np.random.Generator, options: Sequence[Any]) -> Any:
    return options[int(rng.integers(0, len(options)))]


def seed32(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def compatible_events(events: list[dict], topology: str) -> list[dict]:
    """Donor events that actually exist in ``topology``: those
    :func:`~repro.chaos.campaign.validate_events_against_topology`
    accepts.

    Splice crosses cases that may live on different topologies; an
    event naming a link or switch the base topology does not have
    would crash the event applier (``set_link_state`` raises on
    unknown links), which is a garbage input, not a finding.
    """
    keep: list[dict] = []
    for event in events:
        try:
            validate_events_against_topology((TopoEvent(**event),), topology)
        except SpecTopologyError:
            continue
        keep.append(event)
    return keep


def event_order(event: dict) -> tuple[float, str]:
    """The sort key that puts topology events in schedule order."""
    return (float(event["time_ms"]), str(event["kind"]))


def merged_events(events: list[dict], extra: list[dict]) -> list[dict]:
    """``events`` plus ``extra`` in schedule order, capped at four so
    mutation chains cannot grow a timeline without bound."""
    return sorted(list(events) + extra, key=event_order)[:4]


def splice_events(body: dict, donor_body: dict) -> None:
    """Join to ``body["events"]`` the donor's events that exist in
    ``body["topology"]`` (a ``ServeSpec`` or ``FaultCampaign`` body)."""
    body["events"] = merged_events(
        body.get("events", []),
        compatible_events(
            copy.deepcopy(donor_body.get("events", [])), str(body["topology"])
        ),
    )


# -- generate / mutate -------------------------------------------------------


def generate_case(
    seed: int, index: int, kinds: Sequence[str] = FUZZ_KINDS
) -> FuzzCase:
    """Fresh case ``index`` of a campaign seeded with ``seed``.

    The kind cycles through ``kinds`` so every enabled surface gets a
    fixed share of the budget; everything else is drawn from the
    per-case stream.
    """
    if not kinds:
        raise ValueError("generate_case needs at least one kind")
    require_lanes(kinds)
    kind = kinds[index % len(kinds)]
    payload = resolve_lane(kind).generate(case_rng(seed, index))
    return FuzzCase(kind=kind, name=f"{kind}[{index}]", seed=seed, payload=payload)


def mutate_case(
    base: FuzzCase,
    donor: Optional[FuzzCase],
    rng: np.random.Generator,
    index: int,
) -> FuzzCase:
    """One mutation step over a retained corpus case.

    ``donor`` feeds the lane's cross-case ops and must share
    ``base.kind``; pass None to restrict to the unary ones.  The op is
    one draw over the eligible ops in the lane's declared order, so the
    result is deterministic in the supplied ``rng`` state.
    """
    donor_payload = (
        donor.payload if donor is not None and donor.kind == base.kind else None
    )
    eligible = [
        mutation for mutation in resolve_lane(base.kind).mutations
        if donor_payload is not None or not mutation[2]
    ]
    op, apply, needs_donor = pick(rng, eligible)
    payload = copy.deepcopy(base.payload)
    apply(payload, donor_payload if needs_donor else None, rng)
    return FuzzCase(
        kind=base.kind,
        name=f"{base.kind}~{op}[{index}]",
        seed=base.seed,
        payload=payload,
    )
