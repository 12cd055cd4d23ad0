"""The ``compete`` fuzz lane: generator shape, the guarded
cross-strategy divergence oracle, and shrink candidates."""

import json

import pytest

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


def _two_layer_verdict():
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
    return evaluate_case(
        type(case)(kind="compete", name="t", seed=0, payload=payload)
    )


def test_compete_oracle_agreement_passes():
    verdict = _two_layer_verdict()
    assert verdict.oracle == "cross-strategy"
    assert verdict.outcome == "pass"
    assert "compete:agree" in verdict.coverage
    assert verdict.detail["strategies"]["p4update"]["violations"] == 0


def _b4_flap(name, seed, flows, rate, link, time_ms, shed, watchdog):
    serve = {
        "name": name, "topology": "b4", "seed": seed, "mode": "open",
        "flows": flows, "requests": 1, "arrival_rate_per_s": rate,
        "queue_depth": 1, "shed_policy": shed,
        "conflict_policy": "serialize", "horizon_ms": 5000.0,
        "events": [{"time_ms": time_ms, "kind": "link_down",
                    "node_a": link[0], "node_b": link[1]}],
    }
    if watchdog is not None:
        serve["params"] = {"controller_update_timeout_ms": watchdog}
    return serve


#: The payloads of the three corpus cases once committed as expected
#: ``route-divergence`` findings (compete-01c6c99b0a, -01e885aad3,
#: -4f12cd6ebb): after a link failure P4Update's §11 recovery reroutes a
#: flow that Central / ez-Segway leave on the failed link.
RECOVERY_AGAINST_NO_RECOVERY = (
    (_b4_flap("fuzz-1019122464", 838968067, 2, 64.2,
              ("council-ia", "lenoir-nc"), 273.5, "reject", None),
     ["p4update", "central"], ["p4update|central"]),
    (_b4_flap("fuzz-1486645607", 1505926405, 1, 90.7,
              ("atlanta-ga", "council-ia"), 505.3, "park", 0.0),
     ["central", "augmented", "synthesis"],
     ["central|augmented", "central|synthesis"]),
    (_b4_flap("fuzz-392137688", 805254676, 2, 85.3,
              ("council-ia", "dalles-or"), 508.8, "park", 0.0),
     ["p4update", "ezsegway"], ["p4update|ezsegway"]),
)


@pytest.mark.parametrize(
    "serve,strategies,pairs", RECOVERY_AGAINST_NO_RECOVERY,
    ids=["compete-01c6c99b0a", "compete-01e885aad3", "compete-4f12cd6ebb"],
)
def test_recovery_against_no_recovery_is_incomparable(serve, strategies, pairs):
    # Equal request toggles, but the recovering side counts one more
    # "completed" event (its §11 reroute): the routes are not compared.
    case = generate_case(0, _indices_of("compete")[0])
    verdict = evaluate_case(type(case)(
        kind="compete", name="t", seed=0,
        payload={"serve": serve, "strategies": strategies},
    ))
    assert not any(k.startswith("route-divergence") for k in verdict.kinds)
    for pair in pairs:
        assert f"compete:incomparable:{pair}" in verdict.coverage


def _fake_routes(monkeypatch, strategy, completions=None):
    """Run the real services, then give ``strategy`` a different final
    route for every flow (and optionally other completion counts)."""
    from repro.fuzz.lanes import compete

    real = compete.run_service

    def run(spec):
        result = real(spec)
        if spec.strategy == strategy:
            result.routes = {f: ("elsewhere",) for f in result.routes}
            if completions is not None:
                result.completions = completions(result.completions)
        return result

    monkeypatch.setattr(compete, "run_service", run)


def test_route_divergence_under_equal_counts_is_reported(monkeypatch):
    _fake_routes(monkeypatch, "p4update-sl")
    verdict = _two_layer_verdict()
    runs = verdict.detail["strategies"]
    assert runs["p4update"]["completed_events"] == runs["p4update-sl"]["completed_events"]
    assert verdict.outcome == "divergence"
    assert "route-divergence:p4update|p4update-sl" in verdict.kinds


def test_unequal_completion_counts_make_routes_incomparable(monkeypatch):
    _fake_routes(
        monkeypatch, "p4update-sl",
        completions=lambda counts: {f: n + 1 for f, n in counts.items()},
    )
    verdict = _two_layer_verdict()
    assert not any(k.startswith("route-divergence") for k in verdict.kinds)
    assert "compete:incomparable:p4update|p4update-sl" in verdict.coverage


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
