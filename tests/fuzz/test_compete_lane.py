"""The ``compete`` fuzz lane: generator shape, the guarded
cross-strategy divergence oracle, and shrink candidates."""

import json

from repro.fuzz.gen import (
    FUZZ_KINDS,
    case_rng,
    compatible_events,
    generate_case,
    mutate_case,
)
from repro.fuzz.lanes import resolve_lane
from repro.fuzz.lanes.compete import STRATEGY_SETS
from repro.fuzz.oracles import classify, evaluate_case


def _indices_of(kind: str, count: int = 4) -> list[int]:
    start = FUZZ_KINDS.index(kind)
    return [start + i * len(FUZZ_KINDS) for i in range(count)]


def test_compete_is_a_registered_kind():
    assert "compete" in FUZZ_KINDS


def test_compete_payload_loads_as_spec_per_strategy():
    from repro.serve.spec import load_serve_spec

    for index in _indices_of("compete"):
        case = generate_case(5, index)
        assert case.kind == "compete"
        strategies = case.payload["strategies"]
        assert len(strategies) >= 2
        for strategy in strategies:
            spec = load_serve_spec(
                dict(case.payload["serve"], strategy=strategy)
            )
            assert spec.requests >= 1
        json.dumps(case.payload, allow_nan=False)


def test_compete_mutations_preserve_kind():
    base = generate_case(5, _indices_of("compete")[0])
    donor = generate_case(5, _indices_of("compete")[1])
    for step in range(8):
        rng = case_rng(5, 300 + step, 1)
        mutated = mutate_case(base, donor, rng, 300 + step)
        assert mutated.kind == "compete"
        assert set(mutated.payload["strategies"]) <= {
            s for lineup in STRATEGY_SETS for s in lineup
        }


def test_splice_filters_cross_topology_events():
    # A donor on another topology must not inject events naming links
    # the base topology does not have (set_link_state raises on them).
    events = [
        {"time_ms": 10.0, "kind": "link_down",
         "node_a": "council-ia", "node_b": "lenoir-nc"},
        {"time_ms": 20.0, "kind": "switch_crash", "node_a": "council-ia"},
    ]
    assert compatible_events(events, "fig1") == []
    assert len(compatible_events(events, "b4")) == 2


def test_compete_oracle_agreement_passes():
    payload = {
        "serve": {
            "name": "t", "topology": "fig1", "seed": 0, "mode": "open",
            "flows": 2, "requests": 2, "arrival_rate_per_s": 100.0,
            "queue_depth": 2, "shed_policy": "park",
            "conflict_policy": "serialize", "horizon_ms": 20000.0,
        },
        "strategies": ["p4update", "p4update-sl"],
    }
    case = generate_case(0, _indices_of("compete")[0])
    verdict = evaluate_case(
        type(case)(kind="compete", name="t", seed=0, payload=payload)
    )
    assert verdict.oracle == "cross-strategy"
    assert verdict.outcome in ("pass", "divergence")
    assert verdict.detail["strategies"]["p4update"]["violations"] == 0


def test_committed_divergence_repro_still_reproduces():
    # The canonical compete finding this PR's campaigns surfaced:
    # central converges back to the nominal path after a link failure
    # while the decentralized strategies keep the repair detour.
    import pathlib

    from repro.fuzz.corpus import load_corpus_file, replay_doc

    corpus = pathlib.Path(__file__).resolve().parent / "corpus"
    cases = sorted(corpus.glob("compete-*.json"))
    assert cases, "expected committed compete corpus repros"
    for path in cases:
        reproduced, verdict = replay_doc(load_corpus_file(str(path)))
        assert reproduced, (path.name, verdict.to_dict())


def test_compete_shrink_candidates_reduce():
    payload = {
        "serve": {
            "name": "t", "topology": "fig1", "seed": 9, "mode": "open",
            "flows": 4, "requests": 8, "arrival_rate_per_s": 100.0,
            "queue_depth": 4, "shed_policy": "park",
            "conflict_policy": "serialize", "horizon_ms": 30000.0,
            "events": [{"time_ms": 10.0, "kind": "link_down",
                        "node_a": "s1", "node_b": "s2"}],
            "params": {"controller_update_timeout_ms": 1000.0},
        },
        "strategies": ["p4update", "central", "augmented"],
    }
    candidates = list(resolve_lane("compete").shrink_candidates(payload))
    assert candidates
    # Strategy drops keep at least two contenders.
    strategy_lists = [c["strategies"] for c in candidates
                      if len(c["strategies"]) != 3]
    assert strategy_lists and all(len(s) == 2 for s in strategy_lists)
    # Numeric shrinks head toward the documented floors.
    assert any(c["serve"]["requests"] == 4 for c in candidates)
    assert any(c["serve"]["seed"] == 0 for c in candidates)
    assert any(
        c["serve"]["params"]["controller_update_timeout_ms"] == 0.0
        for c in candidates
    )


def test_compete_crash_is_contained_as_verdict():
    case = generate_case(0, _indices_of("compete")[0])
    broken = type(case)(
        kind="compete", name="broken", seed=0,
        payload={"serve": {"name": "x", "topology": "fig1",
                           "requests": 1, "flows": 1},
                 "strategies": ["p4update", "no-such-strategy"]},
    )
    verdict = classify(broken)
    assert verdict.outcome == "crash"
    assert verdict.kinds  # the exception type rides the failure key
