"""The ``chaos`` lane: a :class:`~repro.chaos.campaign.FaultCampaign`
schedule over a real topology — link/switch/controller events plus
probabilistic message faults and protocol-recovery knobs — run as a
full seeded :func:`~repro.chaos.runner.run_campaign` simulation.  The
oracle is the live checker's trace invariants plus the completion
liveness property (every flow completes or is parked with a report).
"""

from __future__ import annotations

import copy
from typing import Any, Iterator, Optional

import numpy as np

from repro.chaos.campaign import CORRUPTORS, MESSAGE_SCOPES, load_campaign
from repro.chaos.runner import run_campaign
from repro.fuzz.coverage import obs_coverage_keys
from repro.fuzz.gen import (
    event_order,
    merged_events,
    pick,
    seed32,
    splice_events,
)
from repro.fuzz.lanes import FuzzLane
from repro.fuzz.oracles import OracleVerdict
from repro.fuzz.shrink import halve, list_drops, reset
from repro.obs.context import make_obs
from repro.topo import topology_shape

_TOPOLOGIES = ("fig1", "fig2", "b4")


def _random_topo_events(
    rng: np.random.Generator, topology: str, horizon_ms: float
) -> list[dict]:
    nodes, edges = topology_shape(topology)
    events: list[dict] = []
    for _ in range(int(rng.integers(0, 3))):
        time_ms = round(float(rng.uniform(5.0, min(400.0, horizon_ms / 4.0))), 1)
        family = int(rng.integers(0, 3))
        where: dict[str, str] = {}
        down, up = "controller_down", "controller_up"
        if family == 0 and edges:
            a, b = pick(rng, edges)
            where, down, up = {"node_a": a, "node_b": b}, "link_down", "link_up"
        elif family == 1 and nodes:
            where = {"node_a": pick(rng, nodes)}
            down, up = "switch_crash", "switch_restart"
        events.append({"time_ms": time_ms, "kind": down, **where})
        # A controller always comes back; links and switches half the time.
        if not where or rng.random() < 0.5:
            back_ms = round(time_ms + float(rng.uniform(20.0, 200.0)), 1)
            events.append({"time_ms": back_ms, "kind": up, **where})
    events.sort(key=event_order)
    return events


def _random_message_faults(rng: np.random.Generator) -> list[dict]:
    faults: list[dict] = []
    for _ in range(int(rng.integers(0, 3))):
        plane = "data" if rng.random() < 0.7 else "control"
        spec: dict[str, Any] = {
            "plane": plane,
            "scope": pick(rng, MESSAGE_SCOPES[plane]),
            "drop_prob": round(float(rng.uniform(0.0, 0.9)), 2),
            "delay_prob": round(float(rng.uniform(0.0, 0.5)), 2),
            "delay_ms": round(float(rng.uniform(1.0, 50.0)), 1),
            "duplicate_prob": round(float(rng.uniform(0.0, 0.3)), 2),
        }
        if plane == "data" and rng.random() < 0.3:
            spec["corrupt_prob"] = round(float(rng.uniform(0.05, 0.5)), 2)
            spec["corruptor"] = pick(rng, tuple(sorted(CORRUPTORS)))
        faults.append(spec)
    return faults


def _generate(rng: np.random.Generator) -> dict:
    topology = pick(rng, _TOPOLOGIES)
    horizon_ms = 30000.0
    campaign: dict[str, Any] = {
        "name": f"fuzz-{seed32(rng)}",
        "topology": topology,
        "scenario": "single" if rng.random() < 0.8 else "multi",
        "seed": seed32(rng),
        "horizon_ms": horizon_ms,
        "update_at_ms": 10.0,
        "update_type": "auto",
        "events": _random_topo_events(rng, topology, horizon_ms),
        "message_faults": _random_message_faults(rng),
        "reliable_control": bool(rng.random() < 0.5),
        "unm_timeout_ms": float(pick(rng, (0.0, 200.0))),
        "controller_update_timeout_ms": float(pick(rng, (0.0, 2000.0))),
        "crash_preserves_state": bool(rng.random() < 0.5),
    }
    return {"campaign": campaign}


def _perturb(out: dict, donor: Optional[dict], rng: np.random.Generator) -> None:
    campaign = out["campaign"]
    knob = pick(rng, ("horizon", "reliable", "unm_timeout", "seed", "preserve"))
    if knob == "horizon":
        campaign["horizon_ms"] = float(campaign["horizon_ms"]) * float(pick(rng, (0.5, 2.0)))
    elif knob == "reliable":
        campaign["reliable_control"] = not bool(campaign.get("reliable_control"))
    elif knob == "unm_timeout":
        current = float(campaign.get("unm_timeout_ms", 0.0))
        campaign["unm_timeout_ms"] = 200.0 if current == 0.0 else 0.0
    elif knob == "seed":
        campaign["seed"] = seed32(rng)
    else:
        campaign["crash_preserves_state"] = not bool(
            campaign.get("crash_preserves_state")
        )


def _fault_insert(
    out: dict, donor: Optional[dict], rng: np.random.Generator
) -> None:
    campaign = out["campaign"]
    extra = _random_topo_events(
        rng, str(campaign["topology"]), float(campaign["horizon_ms"])
    )
    if extra:
        campaign["events"] = merged_events(campaign.get("events", []), extra)
    else:
        faults = list(campaign.get("message_faults", []))
        faults.extend(_random_message_faults(rng))
        campaign["message_faults"] = faults[:3]


def _splice(out: dict, donor: Optional[dict], rng: np.random.Generator) -> None:
    assert donor is not None
    campaign = out["campaign"]
    splice_events(campaign, donor["campaign"])
    faults = list(campaign.get("message_faults", []))
    faults.extend(copy.deepcopy(donor["campaign"].get("message_faults", [])))
    campaign["message_faults"] = faults[:3]


def _shrink_candidates(payload: dict) -> Iterator[dict]:
    yield from list_drops(payload, ["campaign", "events"])
    yield from list_drops(payload, ["campaign", "message_faults"])
    update_at = float(payload.get("campaign", {}).get("update_at_ms", 10.0))
    yield from halve(
        payload, ["campaign"], "horizon_ms", floor=max(1000.0, 2.0 * update_at)
    )
    yield from reset(payload, ["campaign"], "seed", 0)
    yield from reset(payload, ["campaign"], "unm_timeout_ms", 0.0)
    yield from reset(payload, ["campaign"], "controller_update_timeout_ms", 0.0)


def _oracle(payload: dict) -> OracleVerdict:
    campaign = load_campaign(dict(payload["campaign"]))
    obs = make_obs()
    try:
        result = run_campaign(campaign, obs=obs)
    except RuntimeError as exc:
        # Workload generation can legitimately fail (no feasible
        # near-capacity reroute); same seed -> same failure, so this
        # is a deterministic non-finding, not a crash.
        return OracleVerdict(
            "pass", "chaos", (), ("chaos:scenario-infeasible",),
            {"scenario_error": str(exc)},
        )

    kinds = sorted({f"chaos:{v['kind']}" for v in result.violations})
    if not result.completed:
        kinds.append("chaos:incomplete")
    coverage = list(kinds)
    if result.flows_parked:
        coverage.append("chaos:parked")
    if result.reroutes:
        coverage.append("chaos:reroutes")
    if result.retransmissions:
        coverage.append("chaos:retransmissions")
    if result.retry_exhausted:
        coverage.append("chaos:retry-exhausted")
    for plane in sorted(result.fault_counts):
        for fault_kind, count in sorted(result.fault_counts[plane].items()):
            if count:
                coverage.append(f"chaos:fault:{plane}:{fault_kind}")
    coverage.extend(obs_coverage_keys(obs))
    detail = {
        "flows_total": result.flows_total,
        "flows_completed": result.flows_completed,
        "flows_parked": result.flows_parked,
        "violations": len(result.violations),
        "trace_signature": result.trace_signature,
    }
    return OracleVerdict(
        "violation" if kinds else "pass", "chaos",
        tuple(kinds), tuple(sorted(set(coverage))), detail,
    )


CHAOS = FuzzLane(
    name="chaos",
    generate=_generate,
    mutations=(
        ("knob-perturb", _perturb, False),
        ("fault-insert", _fault_insert, False),
        ("splice", _splice, True),
    ),
    shrink_candidates=_shrink_candidates,
    oracle=_oracle,
)
