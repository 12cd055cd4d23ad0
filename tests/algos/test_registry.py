"""The strategy registry: names, capability flags, spec validation."""

import pytest

from repro.algos.registry import (
    DEFAULT_STRATEGY,
    STRATEGIES,
    get_strategy,
    strategy_names,
)

EXPECTED = [
    "augmented",
    "central",
    "ezsegway",
    "p4update",
    "p4update-dl",
    "p4update-sl",
    "synthesis",
]


def test_registry_names_sorted_and_complete():
    assert strategy_names() == EXPECTED
    assert DEFAULT_STRATEGY in STRATEGIES


def test_unknown_strategy_raises_with_known_names():
    with pytest.raises(KeyError, match="registered"):
        get_strategy("nope")


def test_capability_flags():
    caps = {name: get_strategy(name).capabilities() for name in EXPECTED}
    assert caps["augmented"] == {"decentralized": True, "uses_augmentation": True}
    assert caps["central"] == {"decentralized": False, "uses_augmentation": False}
    assert caps["synthesis"]["decentralized"] is False
    for name in ("p4update", "p4update-sl", "p4update-dl", "ezsegway"):
        assert caps[name]["decentralized"] is True
    only_augmented = [n for n in EXPECTED if caps[n]["uses_augmentation"]]
    assert only_augmented == ["augmented"]


def test_info_to_dict_is_json_shaped():
    for name in EXPECTED:
        doc = get_strategy(name).to_dict()
        assert doc["name"] == name
        assert doc["description"]
        assert {"decentralized", "uses_augmentation"} <= set(doc)
        assert doc == {**doc, **get_strategy(name).capabilities()}


def test_serve_spec_rejects_unknown_strategy():
    from repro.serve.spec import ServeSpecError, load_serve_spec

    with pytest.raises(ServeSpecError, match="unknown strategy"):
        load_serve_spec({"name": "x", "strategy": "nope"})


def test_serve_spec_round_trips_strategy():
    from repro.serve.spec import load_serve_spec

    spec = load_serve_spec({"name": "x", "strategy": "augmented"})
    assert spec.strategy == "augmented"
    assert spec.to_dict()["strategy"] == "augmented"


def test_fuzz_compete_lineups_are_registered():
    # The compete fuzz lane carries static strategy line-ups; this pins
    # them to the live registry.
    from repro.fuzz.lanes.compete import STRATEGY_SETS

    known = set(strategy_names())
    for lineup in STRATEGY_SETS:
        assert len(lineup) >= 2
        assert len(set(lineup)) == len(lineup)
        assert set(lineup) <= known


def test_every_builder_path_resolves():
    from repro.loading import resolve_attribute

    for name in EXPECTED:
        assert callable(resolve_attribute(get_strategy(name).builder)), name


def test_runtime_reaches_a_builder_patched_on_its_module(monkeypatch):
    # The perf ledger wraps the builder names as module attributes; a
    # table that captured the function at import would bypass it.
    import repro.harness.build as build
    from repro.algos.registry import build_strategy_runtime
    from repro.topo import ring_topology

    calls = []
    original = build.build_p4update_network

    def patched(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(build, "build_p4update_network", patched)
    build_strategy_runtime("p4update", ring_topology(4))
    assert len(calls) == 1
