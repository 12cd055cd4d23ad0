"""What the lanes that embed a ``ServeSpec`` share.

The ``serve``, ``ops`` and ``compete`` lanes each carry a serve body
somewhere in their payload (``payload["serve"]``, or
``payload["ops"]["serve"]``).  The link-flap draw, the workload knobs,
the fault-insert and splice mutations, the shrink candidates and the
violations-to-verdict assembly over a ``run_service``-style result are
written here once, parameterised by where the body sits.

Every helper that takes an ``rng`` documents its draws: a lane's
generator must keep calling them at the same point of its own draw
sequence, or every payload the lane ever generated changes.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.fuzz.coverage import obs_coverage_keys
from repro.fuzz.gen import merged_events, pick, seed32, splice_events
from repro.fuzz.lanes import Mutation
from repro.fuzz.oracles import OracleVerdict
from repro.fuzz.shrink import halve, list_drops, node_at, reset
from repro.topo import topology_shape

#: Topologies small enough for a full service simulation per case.
TOPOLOGIES = ("fig1", "b4")


# -- generation --------------------------------------------------------------


def draw_workload(
    rng: np.random.Generator,
    topology: str,
    flows: tuple[int, int],
    requests: tuple[int, int],
    max_rate_per_s: float,
) -> dict[str, Any]:
    """The fields every serve body starts with.  Draws, in order: name,
    seed, flows, requests, arrival rate."""
    return {
        "name": f"fuzz-{seed32(rng)}",
        "topology": topology,
        "seed": seed32(rng),
        "mode": "open",
        "flows": int(rng.integers(*flows)),
        "requests": int(rng.integers(*requests)),
        "arrival_rate_per_s": round(float(rng.uniform(20.0, max_rate_per_s)), 1),
    }


def draw_capacity(rng: np.random.Generator) -> tuple[bool, float]:
    """``(congestion_aware, link_capacity)``.  Draws: one ``random``;
    when congestion-unaware a second, and then maybe one ``uniform``."""
    congestion_aware = bool(rng.random() < 0.5)
    link_capacity = 0.0
    if not congestion_aware and rng.random() < 0.7:
        # Tight uniform capacity: transient overcommit really overloads
        # links, which the live checker reports (ServeSpec docstring).
        link_capacity = round(float(rng.uniform(1.0, 4.0)), 2)
    return congestion_aware, link_capacity


def draw_link_flap(
    rng: np.random.Generator,
    topology: str,
    prob: float,
    down_ms: tuple[float, float],
    up_after_ms: tuple[float, float],
) -> list[dict]:
    """With probability ``prob`` one link going down and coming back.
    Draws: one ``random``; on a hit the edge pick and two ``uniform``."""
    _, edges = topology_shape(topology)
    if not (rng.random() < prob and edges):
        return []
    a, b = pick(rng, edges)
    down = round(float(rng.uniform(*down_ms)), 1)
    up = round(down + float(rng.uniform(*up_after_ms)), 1)
    return [
        {"time_ms": down, "kind": "link_down", "node_a": a, "node_b": b},
        {"time_ms": up, "kind": "link_up", "node_a": a, "node_b": b},
    ]


# -- mutation ----------------------------------------------------------------


def perturb_workload_knob(
    serve: dict, knob: str, rng: np.random.Generator, max_requests: int = 48
) -> None:
    """Apply, in place, one of the knobs every serve body has:
    ``requests`` (doubled up to ``max_requests``), ``rate`` (halved or
    doubled: one pick) or ``seed`` (redrawn: one draw)."""
    if knob == "requests":
        serve["requests"] = max(1, min(max_requests, int(serve["requests"]) * 2))
    elif knob == "rate":
        serve["arrival_rate_per_s"] = round(
            float(serve["arrival_rate_per_s"]) * float(pick(rng, (0.5, 2.0))), 1
        )
    elif knob == "seed":
        serve["seed"] = seed32(rng)
    else:
        raise ValueError(f"not a shared workload knob: {knob!r}")


def fault_insert_at(*path: str) -> Mutation:
    """The ``fault-insert`` op for a serve body at ``path``: one more
    ``link_down`` on a random edge of the body's topology."""

    def apply(
        out: dict, donor: Optional[dict], rng: np.random.Generator
    ) -> None:
        serve = node_at(out, path)
        _, edges = topology_shape(str(serve["topology"]))
        if edges:
            a, b = pick(rng, edges)
            down = round(float(rng.uniform(50.0, 2000.0)), 1)
            serve["events"] = merged_events(
                serve.get("events", []),
                [{"time_ms": down, "kind": "link_down", "node_a": a, "node_b": b}],
            )

    return ("fault-insert", apply, False)


def splice_at(*path: str) -> Mutation:
    """The ``splice`` op for a serve body at ``path``: the donor's
    events that exist in the base topology join the base's."""

    def apply(
        out: dict, donor: Optional[dict], rng: np.random.Generator
    ) -> None:
        assert donor is not None
        splice_events(node_at(out, path), node_at(donor, path))

    return ("splice", apply, True)


# -- shrinking ---------------------------------------------------------------


def shrink_candidates_at(
    payload: dict, path: list[Any], lane_resets: Iterable[dict] = ()
) -> Iterator[dict]:
    """Simplifications of the serve body at ``path``: structural drops
    and halvings first, then ``lane_resets`` (the owning lane's own
    knob resets), then the body's knobs reset to their defaults.  A
    knob the body does not carry yields nothing."""
    yield from list_drops(payload, path + ["events"])
    yield from halve(payload, path, "requests", floor=1.0, integer=True)
    yield from halve(payload, path, "flows", floor=1.0, integer=True)
    yield from halve(payload, path, "queue_depth", floor=1.0, integer=True)
    yield from halve(payload, path, "horizon_ms", floor=5000.0)
    yield from lane_resets
    yield from reset(payload, path, "max_in_flight", 0)
    yield from reset(payload, path, "mean_flow_size", 1.0)
    yield from reset(payload, path, "static_interference", "off")
    yield from reset(
        payload, path + ["params"], "controller_update_timeout_ms", 0.0
    )
    yield from reset(payload, path, "seed", 0)


# -- verdict assembly --------------------------------------------------------


def service_findings(
    result: Any, lane: str, outcome_prefix: str
) -> tuple[list[str], list[str]]:
    """``(violation kinds, outcome coverage keys)`` of one
    ``run_service``-style result: live-checker violation kinds plus the
    record invariants audit, and one key per request outcome seen."""
    kinds = sorted({f"{lane}:{v['kind']}" for v in result.violations})
    if not result.invariants_ok:
        kinds.append(f"{lane}:invariants")
    coverage = [
        f"{outcome_prefix}:outcome:{outcome}"
        for outcome, count in sorted(result.outcome_counts.items())
        if count
    ]
    return kinds, coverage


def service_verdict(
    lane: str,
    result: Any,
    obs: Any,
    extra_kinds: Sequence[str] = (),
    extra_coverage: Sequence[str] = (),
    extra_detail: Optional[dict] = None,
) -> OracleVerdict:
    """The verdict of a single-run lane: violation iff any kind."""
    kinds, coverage = service_findings(result, lane, lane)
    kinds.extend(extra_kinds)
    coverage.extend(kinds)
    coverage.extend(extra_coverage)
    coverage.extend(obs_coverage_keys(obs))
    detail = {
        "requests": len(result.records),
        "outcomes": dict(sorted(result.outcome_counts.items())),
        **(extra_detail or {}),
        "violations": len(result.violations),
        "invariants_ok": result.invariants_ok,
        "signature": result.signature(),
    }
    return OracleVerdict(
        "violation" if kinds else "pass", lane,
        tuple(kinds), tuple(sorted(set(coverage))), detail,
    )
