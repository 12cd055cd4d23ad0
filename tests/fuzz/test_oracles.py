"""Oracles: classification outcomes, crash containment, determinism."""

import pytest

from repro.fuzz.gen import FuzzCase, generate_case
from repro.fuzz.oracles import (
    OUTCOMES,
    classify,
    evaluate_case,
    failure_key,
    verdict_from_dict,
)


def test_outcomes_catalogue():
    assert OUTCOMES == ("pass", "violation", "divergence", "crash")


def test_advgen_conflict_case_is_flagged():
    # advgen injects a known conflict; the static stack must find it.
    from repro.analysis.advgen import generate_conflict_cases
    from repro.analysis.plan import plan_to_dict

    advgen = generate_conflict_cases(5, count=1, kinds=["version-slot-race"])[0]
    payload = {
        "strategy": "advgen-conflict",
        "expect_kind": advgen.expect_kind,
        "plans": [plan_to_dict(p) for p in advgen.plans],
        "capacities": {
            f"{a}|{b}": cap for (a, b), cap in sorted(advgen.capacities.items())
        },
        "congestion_aware": advgen.congestion_aware,
        "policies": advgen.policies.to_dict(),
    }
    case = FuzzCase(kind="plan", name="advgen", seed=5, payload=payload)
    verdict = classify(case)
    assert verdict.outcome == "violation"
    assert "interference:version-slot-race" in verdict.kinds


def test_contradicted_expectation_is_divergence():
    # Ground truth says "slot race present", but with a single plan the
    # interference analyzer never runs -> the expectation is missed and
    # the oracle reports a detector divergence, not a violation.
    from repro.analysis.advgen import generate_conflict_cases
    from repro.analysis.plan import plan_to_dict

    advgen = generate_conflict_cases(5, count=1, kinds=["version-slot-race"])[0]
    payload = {
        "strategy": "advgen-conflict",
        "expect_kind": advgen.expect_kind,
        "plans": [plan_to_dict(advgen.plans[0])],
        "capacities": {},
        "congestion_aware": True,
        "policies": advgen.policies.to_dict(),
    }
    verdict = classify(FuzzCase(kind="plan", name="x", seed=5, payload=payload))
    assert verdict.outcome == "divergence"
    assert verdict.oracle == "advgen-expectation"
    assert verdict.kinds == ("missed:version-slot-race",)


def test_oracle_exception_contained_as_crash():
    broken = FuzzCase(kind="plan", name="broken", seed=0, payload={})
    verdict = classify(broken)
    assert verdict.outcome == "crash"
    assert verdict.kinds == ("KeyError",)
    assert "traceback_tail" in verdict.detail
    assert verdict.coverage == ("crash:plan:KeyError",)


def test_evaluate_case_rejects_unknown_kind():
    bad = FuzzCase(kind="nope", name="x", seed=0, payload={})
    with pytest.raises(ValueError, match=r"unknown fuzz kinds \['nope'\]; known: \('plan', "):
        evaluate_case(bad)
    assert classify(bad).outcome == "crash"


def test_chaos_case_classification_deterministic():
    case = generate_case(7, 1)
    assert case.kind == "chaos"
    a = classify(case)
    b = classify(case)
    assert a == b
    assert a.outcome in OUTCOMES


def test_verdict_round_trip():
    for index in range(4):
        verdict = classify(generate_case(3, index))
        assert verdict_from_dict(verdict.to_dict()) == verdict


def test_failure_key_includes_kind_outcome_oracle_kinds():
    verdict = classify(generate_case(0, 0))
    key = failure_key("plan", verdict)
    assert key[:3] == ("plan", verdict.outcome, verdict.oracle)
    assert key[3:] == tuple(verdict.kinds)


def test_classification_position_independent():
    # The verdict must not depend on what ran before it in the same
    # process (evaluate_case resets global sim state per case).
    case = generate_case(7, 5)
    first = classify(case)
    classify(generate_case(7, 6))  # unrelated serve run in between
    classify(generate_case(7, 3))  # unrelated divergence run
    assert classify(case) == first


def test_divergence_case_reports_both_systems():
    case = generate_case(0, 3)
    assert case.kind == "divergence"
    verdict = classify(case)
    systems = case.payload["systems"]
    if verdict.outcome != "crash" and "systems" in verdict.detail:
        assert set(verdict.detail["systems"]) == set(systems)


def test_coverage_keys_present_on_pass_and_fail():
    for index in range(8):
        verdict = classify(generate_case(0, index))
        assert verdict.coverage, (index, verdict)
