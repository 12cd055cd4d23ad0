"""Sweep spec loading, validation and deterministic expansion."""

import pytest

from repro.sweep.spec import (
    Shard,
    SweepSpec,
    SweepSpecError,
    derive_shard_seed,
    load_sweep_spec,
    load_sweep_spec_file,
)

SMOKE = {
    "name": "smoke",
    "kind": "experiment",
    "systems": ["p4update-sl", "p4update-dl"],
    "topologies": ["fig1", "six_node"],
    "scenarios": ["single"],
    "seeds": 2,
}


def test_expansion_is_deterministic_and_ordered():
    spec = load_sweep_spec(SMOKE)
    shards = spec.expand()
    assert len(shards) == 8
    assert [s.index for s in shards] == list(range(8))
    assert [s.shard_id for s in shards] == [f"s{i:04d}" for i in range(8)]
    # Product order: scenario, topology, seed index, system.
    assert shards[0].key == {
        "scenario": "single", "topology": "fig1",
        "seed_index": 0, "system": "p4update-sl",
    }
    assert shards[1].key["system"] == "p4update-dl"
    assert shards[4].key["topology"] == "six_node"
    # Same spec -> identical shard list, every time.
    assert spec.expand() == shards
    assert load_sweep_spec(SMOKE).expand() == shards


def test_seed_excludes_system_axis():
    """Every system in one grid cell sees the identical workload seed
    (the paper's paired design)."""
    shards = load_sweep_spec(SMOKE).expand()
    by_cell = {}
    for shard in shards:
        cell = (shard.key["scenario"], shard.key["topology"],
                shard.key["seed_index"])
        by_cell.setdefault(cell, set()).add(shard.seed)
    assert all(len(seeds) == 1 for seeds in by_cell.values())
    # ...but distinct cells get distinct seeds.
    assert len({next(iter(s)) for s in by_cell.values()}) == len(by_cell)


def test_derive_shard_seed_is_stable():
    a = derive_shard_seed(0, "single", "fig1", 0)
    assert a == derive_shard_seed(0, "single", "fig1", 0)
    assert a != derive_shard_seed(1, "single", "fig1", 0)
    assert a != derive_shard_seed(0, "single", "fig1", 1)
    assert 0 <= a < 2**31 - 1


def test_spec_hash_canonical_and_sensitive():
    spec = load_sweep_spec(SMOKE)
    assert spec.spec_hash() == load_sweep_spec(dict(SMOKE)).spec_hash()
    changed = load_sweep_spec({**SMOKE, "seeds": 3})
    assert changed.spec_hash() != spec.spec_hash()


def test_seeds_int_means_range():
    spec = load_sweep_spec({**SMOKE, "seeds": 3})
    assert spec.body["seeds"] == [0, 1, 2]
    explicit = load_sweep_spec({**SMOKE, "seeds": [5, 9]})
    assert explicit.body["seeds"] == [5, 9]


def test_params_override_validation():
    ok = load_sweep_spec({**SMOKE, "params": {"max_sim_time_ms": 1000.0}})
    assert ok.body["params"] == {"max_sim_time_ms": 1000.0}
    with pytest.raises(SweepSpecError, match="non-overridable"):
        load_sweep_spec({**SMOKE, "params": {"nonsense_knob": 1}})


@pytest.mark.parametrize("broken, match", [
    ({**SMOKE, "systems": ["warp-drive"]}, "unknown system"),
    ({**SMOKE, "topologies": ["moebius"]}, "unknown topology"),
    ({**SMOKE, "scenarios": ["cataclysm"]}, "unknown scenario"),
    ({**SMOKE, "surprise": 1}, "unknown sweep spec field"),
    ({**SMOKE, "name": ""}, "non-empty 'name'"),
    ({**SMOKE, "kind": "quantum"}, "unknown sweep kind"),
    ({**SMOKE, "systems": []}, "empty axis"),
    ({"name": "c", "kind": "chaos"}, "needs a 'campaign'"),
    ({"name": "c", "kind": "chaos", "campaign": {}, "runs": 0}, "runs >= 1"),
    # Malformed axis values name their field instead of escaping as a
    # raw TypeError/ValueError (or being split into characters).
    ({**SMOKE, "topologies": 5}, "'topologies' must be a list"),
    ({**SMOKE, "seeds": "abc"}, "'seeds' must be a list"),
    ({**SMOKE, "seeds": ["x"]}, "'seeds' must be a count or a list"),
    ({**SMOKE, "systems": "p4update"}, "'systems' must be a list"),
    ({**SMOKE, "params": [1]}, "'params' must be an object"),
    # The embedded campaign is loaded and checked against its topology.
    ({"name": "c", "kind": "chaos", "campaign": {
        "name": "c1", "events": [
            {"time_ms": 12.0, "kind": "link_down", "node_a": "v4", "node_b": "v9"},
        ]}}, "node_b='v9' is not a node"),
    ({"name": "c", "kind": "chaos", "campaign": {
        "name": "c1", "events": [
            {"time_ms": 12.0, "kind": "link_down", "node_a": "v4", "node_b": "v7"},
        ]}}, "no link between 'v4' and 'v7'"),
    ({"name": "c", "kind": "chaos", "campaign": {
        "name": "c1",
        "message_faults": [{"plane": "data", "drop_prob": 1.0, "scope": "uim"}],
    }}, "unknown scope 'uim' for the data plane"),
    ({"name": "c", "kind": "chaos", "campaign": {"name": "c1", "surprise": 1}},
     r"unknown chaos campaign field\(s\) \['surprise'\]"),
])
def test_invalid_specs_are_rejected(broken, match):
    with pytest.raises(SweepSpecError, match=match):
        load_sweep_spec(broken)


def test_fields_of_another_kind_are_rejected():
    """A field that belongs to a different kind used to be accepted and
    left out of ``spec_hash`` — two different documents, one cache."""
    chaos = {"name": "c", "kind": "chaos", "campaign": {"name": "c1"}, "runs": 1}
    assert load_sweep_spec(chaos).to_dict().keys() == {
        "name", "kind", "seed", "description", "obs", "campaign", "runs",
    }
    foreign = {**chaos, "systems": ["p4update"], "params": {}, "updates": 7}
    with pytest.raises(SweepSpecError, match=r"unknown sweep spec field.*"
                       r"\['params', 'systems', 'updates'\].*'chaos'"):
        load_sweep_spec(foreign)


def test_chaos_expansion_shares_the_campaign_seed():
    spec = load_sweep_spec({
        "name": "probe",
        "kind": "chaos",
        "campaign": {"name": "c1", "seed": 42},
        "runs": 3,
    })
    shards = spec.expand()
    assert len(shards) == 3
    assert {s.seed for s in shards} == {42}
    assert [s.key["run"] for s in shards] == [0, 1, 2]
    assert all(s.payload["kind"] == "chaos" for s in shards)


def test_shard_payload_is_self_contained():
    shard = load_sweep_spec(SMOKE).expand()[0]
    assert isinstance(shard, Shard)
    payload = shard.payload
    assert payload["shard_id"] == shard.shard_id
    assert payload["index"] == shard.index
    assert payload["seed"] == shard.seed
    for field in ("system", "topology", "scenario", "congestion_aware"):
        assert field in payload


def test_load_sweep_spec_file_round_trip(tmp_path):
    import json

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SMOKE))
    spec = load_sweep_spec_file(str(path))
    assert spec == load_sweep_spec(SMOKE)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(SweepSpecError, match="invalid JSON"):
        load_sweep_spec_file(str(bad))


def test_example_spec_is_valid():
    import os

    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    spec = load_sweep_spec_file(os.path.join(root, "examples",
                                             "sweep_smoke.json"))
    assert len(spec.expand()) >= 8


def test_spec_is_frozen():
    spec = load_sweep_spec(SMOKE)
    with pytest.raises(AttributeError):
        spec.name = "other"
    assert isinstance(spec, SweepSpec)
