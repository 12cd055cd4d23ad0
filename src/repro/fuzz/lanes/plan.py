"""The ``plan`` lane: a batch of update plans for the static verifier
(:func:`repro.analysis.plan.verify_plan`) and the interference analyzer
(:func:`repro.analysis.interference.detect_interference`).

The :mod:`repro.analysis.advgen` injectors are one generation strategy
among three; a second synthesises well-formed plans and then applies
structural mutations (dropped installs, skewed distances, version
rewinds, dependency cycles).  When the case carries an advgen
expectation (a known injected conflict kind, or "provably disjoint"),
a contradiction between that ground truth and the analyzer is
classified ``divergence`` — a detector bug, the most severe find this
oracle can make.
"""

from __future__ import annotations

import copy
from typing import Any, Iterator, Optional

import numpy as np

from repro.analysis.advgen import (
    CONFLICT_KINDS,
    AdversarialCase,
    generate_conflict_cases,
    generate_disjoint_pairs,
    plan_from_paths,
)
from repro.analysis.interference import BatchPolicies, detect_interference
from repro.analysis.plan import plan_from_dict, plan_to_dict, verify_plan
from repro.fuzz.gen import pick, seed32
from repro.fuzz.lanes import FuzzLane
from repro.fuzz.oracles import OracleVerdict
from repro.fuzz.shrink import list_drops, set_value

#: Generation strategies for ``plan`` cases.
PLAN_STRATEGIES = ("advgen-conflict", "advgen-disjoint", "random-mutated")


def _payload_from_adversarial(case: AdversarialCase, strategy: str) -> dict:
    return {
        "strategy": strategy,
        "expect_kind": case.expect_kind,
        "plans": [plan_to_dict(plan) for plan in case.plans],
        "capacities": {
            f"{a}|{b}": float(cap)
            for (a, b), cap in sorted(case.capacities.items())
        },
        "congestion_aware": bool(case.congestion_aware),
        "policies": case.policies.to_dict(),
    }


#: Structural plan mutations (applied to the serialised plan doc so
#: the result can encode states no controller would emit).
PLAN_MUTATION_OPS = (
    "drop-install",
    "dup-install",
    "skew-distance",
    "rewind-version",
    "drop-notify",
    "cycle-dependency",
)


def mutate_plan_doc(doc: dict, rng: np.random.Generator) -> dict:
    """Apply one structural mutation to a serialised plan document."""
    doc = copy.deepcopy(doc)
    op = pick(rng, PLAN_MUTATION_OPS)
    installs = [dict(i) for i in doc.get("installs", [])]
    if op == "drop-install" and len(installs) > 1:
        del installs[int(rng.integers(0, len(installs)))]
    elif op == "dup-install" and installs:
        installs.append(dict(installs[int(rng.integers(0, len(installs)))]))
    elif op == "skew-distance" and installs:
        i = int(rng.integers(0, len(installs)))
        installs[i]["distance"] = int(installs[i]["distance"]) + int(rng.integers(1, 4))
    elif op == "rewind-version":
        doc["version"] = int(doc.get("prior_version", 0))
    elif op == "drop-notify":
        edges = [list(e) for e in doc.get("notify_edges", [])]
        if edges:
            del edges[int(rng.integers(0, len(edges)))]
            doc["notify_edges"] = edges
    elif op == "cycle-dependency":
        nodes = [str(i["node"]) for i in installs]
        if len(nodes) >= 2:
            a, b = nodes[0], nodes[1]
            deps = [list(d) for d in doc.get("dependencies", [])]
            deps.extend([[a, b], [b, a]])
            doc["dependencies"] = deps
    doc["installs"] = installs
    return doc


def _random_plan_doc(rng: np.random.Generator, flow_id: int) -> dict:
    """A well-formed random reroute plan over fresh synthetic nodes."""
    pool = [f"n{int(j):02d}" for j in rng.permutation(26)]
    old_mids = int(rng.integers(1, 4))
    new_mids = int(rng.integers(1, 4))
    ingress, egress = pool[0], pool[1]
    old_path = [ingress] + pool[2:2 + old_mids] + [egress]
    new_path = [ingress] + pool[2 + old_mids:2 + old_mids + new_mids] + [egress]
    plan = plan_from_paths(
        flow_id,
        old_path,
        new_path,
        flow_size=round(float(rng.uniform(0.5, 1.5)), 2),
    )
    return plan_to_dict(plan)


def _generate(rng: np.random.Generator) -> dict:
    strategy = pick(rng, PLAN_STRATEGIES)
    if strategy == "advgen-conflict":
        kind = pick(rng, CONFLICT_KINDS)
        adv = generate_conflict_cases(seed32(rng), count=1, kinds=[kind])[0]
        return _payload_from_adversarial(adv, strategy)
    if strategy == "advgen-disjoint":
        adv = generate_disjoint_pairs(seed32(rng), count=1)[0]
        return _payload_from_adversarial(adv, strategy)
    # random-mutated: one or two well-formed plans, then 1..3 mutations.
    plans = [_random_plan_doc(rng, flow_id=seed32(rng))]
    if rng.random() < 0.5:
        plans.append(_random_plan_doc(rng, flow_id=seed32(rng)))
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(0, len(plans)))
        plans[i] = mutate_plan_doc(plans[i], rng)
    return {
        "strategy": strategy,
        "expect_kind": None,  # ground truth lost once mutated
        "plans": plans,
        "capacities": {},
        "congestion_aware": True,
        "policies": {
            "same_flow": bool(rng.random() < 0.5),
            "shared_switch": False,
            "max_in_flight": 0,
            "extra_order": [],
        },
    }

def _perturb(out: dict, donor: Optional[dict], rng: np.random.Generator) -> None:
    plans = out.get("plans", [])
    if plans and rng.random() < 0.7:
        i = int(rng.integers(0, len(plans)))
        plans[i] = mutate_plan_doc(plans[i], rng)
    else:
        policies = dict(out.get("policies", {}))
        policies["same_flow"] = not bool(policies.get("same_flow"))
        out["policies"] = policies
    out["expect_kind"] = None  # mutation invalidates the advgen ground truth


def _crossover(out: dict, donor: Optional[dict], rng: np.random.Generator) -> None:
    assert donor is not None
    donor_plans = donor.get("plans", [])
    if donor_plans:
        plans = list(out.get("plans", []))
        plans.append(copy.deepcopy(donor_plans[-1]))
        out["plans"] = plans[:3]
        out["expect_kind"] = None


def _shrink_candidates(payload: dict) -> Iterator[dict]:
    plans = payload.get("plans", [])
    if len(plans) > 1:
        yield from list_drops(payload, ["plans"], minimum=1)
    for i in range(len(plans)):
        yield from list_drops(payload, ["plans", i, "installs"], minimum=1)
        yield from list_drops(payload, ["plans", i, "notify_edges"])
        yield from list_drops(payload, ["plans", i, "dependencies"])
        yield from list_drops(payload, ["plans", i, "old_path"])
        yield from list_drops(payload, ["plans", i, "new_path"])
        if float(plans[i].get("flow_size", 0.0)) not in (0.0, 1.0):
            yield set_value(payload, ["plans", i], "flow_size", 1.0)
    for key in sorted(payload.get("capacities", {})):
        out = copy.deepcopy(payload)
        del out["capacities"][key]
        yield out


def _oracle(payload: dict) -> OracleVerdict:
    plans = [plan_from_dict(doc) for doc in payload["plans"]]
    plan_kinds = sorted(
        {v.kind for plan in plans for v in verify_plan(plan).violations}
    )
    policies_doc = dict(payload.get("policies", {}))
    policies = BatchPolicies(
        same_flow=bool(policies_doc.get("same_flow", False)),
        shared_switch=bool(policies_doc.get("shared_switch", False)),
        max_in_flight=int(policies_doc.get("max_in_flight", 0)),
        extra_order=tuple(
            (int(a), int(b)) for a, b in policies_doc.get("extra_order", ())
        ),
    )
    capacities = {
        tuple(key.split("|", 1)): float(cap)
        for key, cap in sorted(payload.get("capacities", {}).items())
    }
    finding_kinds: list[str] = []
    if len(plans) >= 2:
        report = detect_interference(
            plans,
            policies,
            capacities,  # type: ignore[arg-type]
            congestion_aware=bool(payload.get("congestion_aware", True)),
            label="fuzz",
        )
        finding_kinds = sorted({f.kind for f in report.findings})

    kinds = tuple(
        [f"plan:{k}" for k in plan_kinds]
        + [f"interference:{k}" for k in finding_kinds]
    )
    detail: dict[str, Any] = {
        "plans": len(plans),
        "plan_violations": plan_kinds,
        "interference_findings": finding_kinds,
    }

    expect = payload.get("expect_kind")
    if expect is not None:
        expect = str(expect)
        detail["expect_kind"] = expect
        if expect and expect not in finding_kinds:
            return OracleVerdict(
                "divergence", "advgen-expectation", (f"missed:{expect}",),
                kinds + (f"advgen:missed:{expect}",), detail,
            )
        if not expect and finding_kinds:
            return OracleVerdict(
                "divergence", "advgen-expectation",
                tuple(f"false-positive:{k}" for k in finding_kinds),
                kinds + ("advgen:false-positive",), detail,
            )
    if kinds:
        return OracleVerdict("violation", "static", kinds, kinds, detail)
    return OracleVerdict("pass", "static", (), ("plan:clean",), detail)


PLAN = FuzzLane(
    name="plan",
    generate=_generate,
    mutations=(
        ("knob-perturb", _perturb, False),
        ("plan-crossover", _crossover, True),
    ),
    shrink_candidates=_shrink_candidates,
    oracle=_oracle,
)
