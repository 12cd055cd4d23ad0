"""The system table: names, row fields, spec validation."""

import pytest

from repro.algos.registry import SYSTEMS, system_names, system_row

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
    assert system_names() == EXPECTED
    assert list(SYSTEMS) == [row.name for row in SYSTEMS.values()]


def test_unknown_strategy_raises_with_known_names():
    with pytest.raises(ValueError, match="registered"):
        system_row("nope")


def test_capability_flags():
    caps = {name: system_row(name).capabilities() for name in EXPECTED}
    assert caps["augmented"] == {"decentralized": True, "uses_augmentation": True}
    assert caps["central"] == {"decentralized": False, "uses_augmentation": False}
    assert caps["synthesis"]["decentralized"] is False
    for name in ("p4update", "p4update-sl", "p4update-dl", "ezsegway"):
        assert caps[name]["decentralized"] is True
    only_augmented = [n for n in EXPECTED if caps[n]["uses_augmentation"]]
    assert only_augmented == ["augmented"]


def test_row_fields():
    for name in EXPECTED:
        assert system_row(name).description, name
    layers = {name: system_row(name).forced_layer for name in EXPECTED}
    assert layers == {
        **dict.fromkeys(EXPECTED), "p4update-sl": "SINGLE", "p4update-dl": "DUAL",
    }
    wrapped = {name for name in EXPECTED if system_row(name).wrapper}
    assert wrapped == {"augmented", "synthesis"}
    serve_only = [n for n in EXPECTED if system_row(n).orders_at_dispatch()]
    assert serve_only == ["synthesis"]


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
    # The compete and divergence fuzz lanes carry static line-ups; this
    # pins them to the live registry.  Divergence runs its pairs through
    # run_experiment, which refuses rows that order at dispatch.
    from repro.fuzz.lanes.compete import STRATEGY_SETS
    from repro.fuzz.lanes.divergence import _SYSTEM_PAIRS

    known = set(system_names())
    for lineup in STRATEGY_SETS + _SYSTEM_PAIRS:
        assert len(lineup) >= 2
        assert len(set(lineup)) == len(lineup)
        assert set(lineup) <= known
    for pair in _SYSTEM_PAIRS:
        assert not any(system_row(name).orders_at_dispatch() for name in pair)


def test_every_builder_path_resolves():
    from repro.harness.build import System
    from repro.loading import resolve_attribute

    for name in EXPECTED:
        row = system_row(name)
        assert isinstance(row.system(), System), name
        if row.wrapper is not None:
            assert callable(resolve_attribute(row.wrapper)), name
        assert (row.update_type() is None) == (row.forced_layer is None), name


def test_runtime_reaches_a_builder_patched_on_its_module(monkeypatch):
    # The perf ledger wraps the builder names as module attributes; a
    # table that captured the function at import would bypass it.
    import repro.harness.build as build
    from repro.algos.registry import build_system
    from repro.topo.synthetic import ring_topology

    calls = []
    original = build.build_p4update_network

    def patched(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(build, "build_p4update_network", patched)
    build_system("p4update", ring_topology(4))
    assert len(calls) == 1
