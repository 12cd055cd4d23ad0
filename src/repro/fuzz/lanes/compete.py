"""The ``compete`` lane: one seeded serve workload replayed under two
or three registered update strategies (:mod:`repro.algos`).

Per strategy the live checker and invariants audit run as usual;
across strategies the final per-flow routes are compared — but only
between strategy pairs whose per-flow counts match twice over:

* completed-request toggles.  Strategies legitimately finish
  different request subsets (aborts, parks, deadlocks change path
  parity);
* the controller's ``"completed"`` events.  These add P4Update's §11
  reroute completions, which move a flow off a failed link that a
  system without recovery leaves it on; an ``augmented`` detour is one
  event.

Equal counts make the comparison exact, and any remaining difference
is a genuine cross-strategy ``divergence``.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

import numpy as np

from repro.fuzz.gen import pick
from repro.fuzz.lanes import FuzzLane, serve_body
from repro.fuzz.oracles import OracleVerdict, comparison_verdict
from repro.fuzz.shrink import list_drops
from repro.serve.model import OUTCOME_COMPLETED
from repro.serve.service import run_service
from repro.serve.spec import load_serve_spec

#: Strategy line-ups (every name registered in
#: :mod:`repro.algos.registry`; its test asserts they stay registered).
STRATEGY_SETS = (
    ("p4update", "central"),
    ("p4update", "ezsegway"),
    ("p4update", "augmented"),
    ("p4update", "synthesis"),
    ("p4update-sl", "p4update-dl"),
    ("central", "augmented", "synthesis"),
)


def _generate(rng: np.random.Generator) -> dict:
    topology = pick(rng, serve_body.TOPOLOGIES)
    events = serve_body.draw_link_flap(
        rng, topology, 0.3, (50.0, 1000.0), (100.0, 1000.0)
    )
    # One compete case runs a full serve simulation per strategy, so
    # the workload stays deliberately small.
    serve = {
        **serve_body.draw_workload(rng, topology, (2, 6), (3, 12), 300.0),
        "queue_depth": int(rng.integers(2, 12)),
        "shed_policy": pick(rng, ("reject", "park")),
        "conflict_policy": pick(rng, ("serialize", "merge")),
        "horizon_ms": 30000.0,
        "events": events,
    }
    if rng.random() < 0.5:
        # The §11 controller watchdog, so link flaps cannot wedge a
        # strategy until the horizon.
        serve["params"] = {"controller_update_timeout_ms": 1000.0}
    return {
        "serve": serve,
        "strategies": list(pick(rng, STRATEGY_SETS)),
    }


def _perturb(out: dict, donor: Optional[dict], rng: np.random.Generator) -> None:
    serve = out["serve"]
    knob = pick(rng, ("requests", "rate", "strategies", "policy", "seed"))
    if knob == "strategies":
        out["strategies"] = list(pick(rng, STRATEGY_SETS))
    elif knob == "policy":
        serve["conflict_policy"] = pick(rng, ("serialize", "merge"))
        serve["shed_policy"] = pick(rng, ("reject", "park"))
    else:
        serve_body.perturb_workload_knob(serve, knob, rng, max_requests=24)


def _shrink_candidates(payload: dict) -> Iterator[dict]:
    # A cross-strategy finding names the strategies in its failure key,
    # so dropping an uninvolved third strategy preserves the key while
    # dropping an involved one cannot be accepted — the key check does
    # the right thing either way.
    yield from list_drops(payload, ["strategies"], minimum=2)
    yield from serve_body.shrink_candidates_at(payload, ["serve"])


def _oracle(payload: dict) -> OracleVerdict:
    serve = dict(payload["serve"])
    strategies = [str(s) for s in payload["strategies"]]
    runs: dict[str, dict[str, Any]] = {}
    routes: dict[str, dict[str, list[str]]] = {}
    toggles: dict[str, dict[str, int]] = {}
    completions: dict[str, dict[str, int]] = {}
    kinds: list[str] = []
    coverage: list[str] = []
    for strategy in strategies:
        spec = load_serve_spec(dict(serve, strategy=strategy))
        result = run_service(spec)
        per_flow: dict[str, int] = {}
        for record in result.records:
            if record["outcome"] == OUTCOME_COMPLETED:
                flow = str(record["flow_id"])
                per_flow[flow] = per_flow.get(flow, 0) + 1
        toggles[strategy] = per_flow
        completions[strategy] = {
            str(flow): count for flow, count in result.completions.items()
        }
        routes[strategy] = {
            str(flow): list(path)
            for flow, path in sorted(result.routes.items())
        }
        violation_kinds = sorted({str(v["kind"]) for v in result.violations})
        runs[strategy] = {
            "outcomes": dict(sorted(result.outcome_counts.items())),
            "violations": len(result.violations),
            "violation_kinds": violation_kinds,
            "invariants_ok": bool(result.invariants_ok),
            "completed_toggles": per_flow,
            "completed_events": completions[strategy],
        }
        run_kinds, run_coverage = serve_body.service_findings(
            result, "compete", f"compete:{strategy}"
        )
        kinds.extend(run_kinds)
        coverage.extend(run_coverage)

    mismatches: list[str] = []
    divergent: dict[str, list[str]] = {}
    for i, a in enumerate(strategies):
        for b in strategies[i + 1:]:
            # The guarded comparison: final routes are only comparable
            # when both strategies committed the same number of toggles
            # and of updates (recovery reroutes included) per flow.
            # Otherwise the routes legitimately differ — that asymmetry
            # is the scoreboard's business, not a consistency finding.
            if toggles[a] != toggles[b] or completions[a] != completions[b]:
                coverage.append(f"compete:incomparable:{a}|{b}")
                continue
            flows = [
                flow for flow in sorted(set(routes[a]) | set(routes[b]))
                if routes[a].get(flow) != routes[b].get(flow)
            ]
            if flows:
                mismatches.append(f"route-divergence:{a}|{b}")
                divergent[f"{a}|{b}"] = flows

    detail: dict[str, Any] = {"strategies": runs}
    if divergent:
        detail["divergent_flows"] = divergent
        detail["routes"] = routes
    return comparison_verdict(
        "cross-strategy", "compete", mismatches, kinds, coverage + kinds, detail
    )


COMPETE = FuzzLane(
    name="compete",
    generate=_generate,
    mutations=(
        ("knob-perturb", _perturb, False),
        serve_body.fault_insert_at("serve"),
        serve_body.splice_at("serve"),
    ),
    shrink_candidates=_shrink_candidates,
    oracle=_oracle,
)
