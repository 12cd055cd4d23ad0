"""The ``divergence`` lane: one seeded scenario run under two native
systems (SL vs DL, or P4Update vs ez-Segway) whose completion and
consistency verdicts must agree.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterator, Optional

import numpy as np

from repro.fuzz.gen import pick, seed32
from repro.fuzz.lanes import FuzzLane
from repro.fuzz.oracles import OracleVerdict, comparison_verdict
from repro.fuzz.shrink import halve, reset
from repro.harness.experiment import run_experiment
from repro.harness.sweep_kind import seeded_scenario
from repro.params import SimParams

_TOPOLOGIES = ("fig1", "b4", "internet2")
_SYSTEM_PAIRS = (
    ("p4update-sl", "p4update-dl"),
    ("p4update", "ezsegway"),
)


def _generate(rng: np.random.Generator) -> dict:
    return {
        "topology": pick(rng, _TOPOLOGIES),
        "scenario": "single" if rng.random() < 0.5 else "multi",
        "seed": seed32(rng),
        "systems": list(pick(rng, _SYSTEM_PAIRS)),
        "congestion_aware": bool(rng.random() < 0.8),
        "params": {"max_sim_time_ms": 60000.0},
    }


def _perturb(out: dict, donor: Optional[dict], rng: np.random.Generator) -> None:
    knob = pick(rng, ("seed", "pair", "congestion"))
    if knob == "seed":
        out["seed"] = seed32(rng)
    elif knob == "pair":
        out["systems"] = list(pick(rng, _SYSTEM_PAIRS))
    else:
        out["congestion_aware"] = not bool(out.get("congestion_aware", True))


def _shrink_candidates(payload: dict) -> Iterator[dict]:
    yield from reset(payload, [], "seed", 0)
    yield from halve(payload, ["params"], "max_sim_time_ms", floor=10000.0)


def _oracle(payload: dict) -> OracleVerdict:
    seed = int(payload["seed"])
    try:
        scenario = seeded_scenario(
            str(payload["topology"]), str(payload.get("scenario", "single")), seed
        )
    except RuntimeError as exc:
        return OracleVerdict(
            "pass", "cross-system", (), ("div:scenario-infeasible",),
            {"scenario_error": str(exc)},
        )

    params = SimParams(seed=seed)
    overrides = dict(payload.get("params", {}))
    if overrides:
        params = dataclasses.replace(params, **overrides)
    congestion_aware = bool(payload.get("congestion_aware", True))

    systems = [str(s) for s in payload["systems"]]
    summaries: dict[str, dict[str, Any]] = {}
    coverage: list[str] = []
    for system in systems:
        result = run_experiment(
            system, scenario, params=params, congestion_aware=congestion_aware
        )
        summaries[system] = {
            "completed": bool(result.completed),
            "consistency_ok": bool(result.consistency_ok),
            "violations": int(result.violations),
        }
        coverage.append(
            f"div:{system}:{'completed' if result.completed else 'incomplete'}"
        )
        if result.violations:
            coverage.append(f"div:{system}:violations")

    a, b = systems[0], systems[1]
    mismatches: list[str] = []
    for field_name in ("completed", "consistency_ok"):
        if summaries[a][field_name] != summaries[b][field_name]:
            mismatches.append(f"mismatch:{field_name}")
    if (summaries[a]["violations"] > 0) != (summaries[b]["violations"] > 0):
        mismatches.append("mismatch:violations")

    both_violate = not mismatches and all(
        summaries[system]["violations"] for system in (a, b)
    )
    if both_violate:
        coverage.append("div:both-violations")
    return comparison_verdict(
        "cross-system", "div", mismatches,
        ["both-systems-violate"] if both_violate else [], coverage,
        {"systems": summaries, "scenario": scenario.description},
    )


DIVERGENCE = FuzzLane(
    name="divergence",
    generate=_generate,
    mutations=(("knob-perturb", _perturb, False),),
    shrink_candidates=_shrink_candidates,
    oracle=_oracle,
)
