"""Generators: determinism, JSON round-trips, structurally valid cases."""

import json

import numpy as np
import pytest

from repro.fuzz.gen import (
    FUZZ_KINDS,
    FuzzCase,
    canonical_payload,
    case_from_dict,
    case_rng,
    generate_case,
    mutate_case,
)
from repro.fuzz.lanes import resolve_lane


def test_generate_case_deterministic():
    for index in range(8):
        a = generate_case(42, index)
        b = generate_case(42, index)
        assert a == b
        assert canonical_payload(a.payload) == canonical_payload(b.payload)


def test_generate_case_cycles_kinds():
    kinds = [generate_case(0, i).kind for i in range(2 * len(FUZZ_KINDS))]
    assert kinds == list(FUZZ_KINDS) * 2


def _indices_of(kind: str, count: int = 4) -> list[int]:
    """Campaign indices that generate ``kind`` cases."""
    start = FUZZ_KINDS.index(kind)
    return [start + i * len(FUZZ_KINDS) for i in range(count)]


def test_generate_case_respects_kind_subset():
    for i in range(6):
        assert generate_case(0, i, kinds=("plan",)).kind == "plan"


def test_different_seeds_differ():
    a = generate_case(1, 0)
    b = generate_case(2, 0)
    assert a.payload != b.payload


def test_case_json_round_trip():
    for index in range(8):
        case = generate_case(7, index)
        # Straight through JSON: the corpus and shard documents carry
        # cases as plain data.
        doc = json.loads(json.dumps(case.to_dict()))
        assert case_from_dict(doc) == case


def test_payloads_are_json_safe():
    for index in range(12):
        case = generate_case(3, index)
        json.dumps(case.payload, allow_nan=False)


def test_chaos_payload_loads_as_campaign():
    from repro.chaos.campaign import load_campaign

    for index in _indices_of("chaos"):
        case = generate_case(5, index)
        assert case.kind == "chaos"
        campaign = load_campaign(case.payload["campaign"])
        assert campaign.horizon_ms > campaign.update_at_ms


def test_serve_payload_loads_as_spec():
    from repro.serve.spec import load_serve_spec

    for index in _indices_of("serve"):
        case = generate_case(5, index)
        assert case.kind == "serve"
        spec = load_serve_spec(dict(case.payload["serve"]))
        assert spec.requests >= 1


def test_plan_payload_loads_as_plans():
    from repro.analysis.plan import plan_from_dict

    for index in _indices_of("plan"):
        case = generate_case(5, index)
        assert case.kind == "plan"
        plans = [plan_from_dict(doc) for doc in case.payload["plans"]]
        assert plans and all(p.installs for p in plans)


def test_ops_payload_loads_as_session_spec():
    from repro.ops.spec import load_session_spec

    for index in _indices_of("ops"):
        case = generate_case(5, index)
        assert case.kind == "ops"
        spec = load_session_spec(dict(case.payload["ops"]))
        assert spec.timeline  # every generated session has operations


def test_mutations_deterministic_and_kind_preserving():
    base = generate_case(9, 0)
    donor = generate_case(9, len(FUZZ_KINDS))
    assert base.kind == donor.kind == "plan"
    for step in range(6):
        rng_a = case_rng(9, 100 + step, stream=1)
        rng_b = case_rng(9, 100 + step, stream=1)
        a = mutate_case(base, donor, rng_a, 100 + step)
        b = mutate_case(base, donor, rng_b, 100 + step)
        assert a == b
        assert a.kind == base.kind
        assert "~" in a.name  # mutation op recorded in the name


def test_mutation_ops_cover_every_kind():
    seen = set()
    for index in range(len(FUZZ_KINDS)):
        base = generate_case(13, index)
        donor = generate_case(13, index + len(FUZZ_KINDS))
        for step in range(12):
            rng = case_rng(13, 200 + step, stream=1)
            mutated = mutate_case(base, donor, rng, 200 + step)
            seen.add(mutated.name.split("~")[1].split("[")[0])
    declared = {
        op for kind in FUZZ_KINDS for op, _, _ in resolve_lane(kind).mutations
    }
    assert seen <= declared == {
        "splice", "knob-perturb", "fault-insert", "plan-crossover"
    }
    assert len(seen) >= 3


def test_case_rng_streams_are_independent():
    a = case_rng(1, 0, stream=0).integers(0, 2**31)
    b = case_rng(1, 0, stream=1).integers(0, 2**31)
    assert a != b


def test_fuzz_case_is_frozen():
    case = generate_case(0, 0)
    with pytest.raises(AttributeError):
        case.kind = "other"


def test_numpy_not_leaked_into_payloads():
    for index in range(8):
        case = generate_case(21, index)

        def walk(value):
            assert not isinstance(value, (np.integer, np.floating, np.ndarray))
            if isinstance(value, dict):
                for v in value.values():
                    walk(v)
            elif isinstance(value, list):
                for v in value:
                    walk(v)

        walk(case.payload)
        assert isinstance(case, FuzzCase)
