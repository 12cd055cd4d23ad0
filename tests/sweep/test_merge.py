"""Deterministic merge: metrics, CPU samples, aggregates, the manifest."""

import json

import pytest

from repro.harness.cli import main
from repro.obs.manifest import load_manifest, manifest_path
from repro.obs.sampler import OUTSIDE, merge_samples
from repro.sweep.executor import run_sweep
from repro.sweep.merge import (
    build_sweep_results,
    merge_metrics,
    merge_shard_obs,
    results_signature,
    validate_sweep_results,
)
from repro.sweep.spec import SweepSpec, load_sweep_spec


def merge_from_cache(spec_doc: dict, tmp_path) -> str:
    """``repro sweep merge`` over the shard cache a ``run_sweep`` left
    under ``tmp_path/cache``; returns the manifest's path."""
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_doc))
    assert main([
        "sweep", "merge", str(spec_path),
        "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path),
    ]) == 0
    return manifest_path(f"sweep_{spec_doc['name']}", str(tmp_path))


def _doc(index, results, system="p4update-sl", seed_index=0, **extra):
    key = {"scenario": "single", "topology": "fig1",
           "seed_index": seed_index, "system": system}
    return {
        "shard_id": f"s{index:04d}", "index": index, "kind": "experiment",
        "seed": 7, "key": key, "results": results,
        "wall": {"duration_s": 0.1}, **extra,
    }


def test_signature_is_order_independent():
    docs = [_doc(i, {"x": i}) for i in range(4)]
    assert results_signature(docs) == results_signature(docs[::-1])


def test_merge_metrics_sums_counters_and_combines_histograms():
    a = {
        "messages": [{"labels": {"node": "v1"}, "type": "counter", "value": 3}],
        "latency": [{"labels": {}, "type": "histogram", "count": 2,
                     "sum": 10.0, "min": 4.0, "max": 6.0, "mean": 5.0}],
    }
    b = {
        "messages": [
            {"labels": {"node": "v1"}, "type": "counter", "value": 2},
            {"labels": {"node": "v2"}, "type": "counter", "value": 1},
        ],
        "latency": [{"labels": {}, "type": "histogram", "count": 1,
                     "sum": 2.0, "min": 2.0, "max": 2.0, "mean": 2.0}],
    }
    merged = merge_metrics([a, b])
    by_node = {row["labels"].get("node"): row for row in merged["messages"]}
    assert by_node["v1"]["value"] == 5
    assert by_node["v2"]["value"] == 1
    hist = merged["latency"][0]
    assert hist["count"] == 3
    assert hist["sum"] == 12.0
    assert hist["min"] == 2.0 and hist["max"] == 6.0
    assert hist["mean"] == pytest.approx(4.0)


def test_merge_metrics_empty_histogram_snapshot():
    empty = {"h": [{"labels": {}, "type": "histogram", "count": 0}]}
    merged = merge_metrics([empty, empty])
    assert merged["h"][0]["count"] == 0


def test_merge_shard_obs_sums_samples_exactly():
    step, read = "repro.sim.engine.Engine.step", "repro.p4.registers.RegisterArray.read"
    results = {"shards": [
        _doc(0, {}, profile=[{"target": step, "samples": 5},
                             {"target": OUTSIDE, "samples": 1}]),
        _doc(1, {}, profile=[{"target": read, "samples": 5},
                             {"target": step, "samples": 2}]),
        _doc(2, {}, profile=[]),
        _doc(3, {}),
    ]}
    # Sorted by samples descending, ties by target.
    assert merge_shard_obs(results)["merged_profile"] == [
        {"target": step, "samples": 7},
        {"target": read, "samples": 5},
        {"target": OUTSIDE, "samples": 1},
    ]
    unsampled = merge_shard_obs({"shards": [_doc(0, {}, profile=[])]})
    assert "merged_profile" not in unsampled


def test_build_sweep_results_validates_and_counts():
    spec = load_sweep_spec({
        "name": "t", "systems": ["p4update-sl"], "topologies": ["fig1"],
        "scenarios": ["single"], "seeds": 2,
    })
    docs = [
        _doc(0, {"completed": True, "total_update_time_ms": 10.0,
                 "violations": 0}),
        _doc(1, {"completed": True, "total_update_time_ms": 30.0,
                 "violations": 0}, seed_index=1),
    ]
    results = build_sweep_results(spec, docs, [], 2)
    assert results["shards_completed"] == 2 and results["shards_failed"] == 0
    cell = results["aggregates"]["cells"]["single/fig1/p4update-sl"]
    assert cell["paired_runs"] == 2
    assert cell["mean_update_ms"] == pytest.approx(20.0)
    validate_sweep_results(results)


def test_incomplete_group_is_skipped_from_pairing():
    spec = load_sweep_spec({
        "name": "t", "systems": ["p4update-sl", "ezsegway"],
        "topologies": ["fig1"], "scenarios": ["single"], "seeds": 1,
    })
    docs = [
        _doc(0, {"completed": True, "total_update_time_ms": 10.0,
                 "violations": 0}),
        _doc(1, {"completed": False, "total_update_time_ms": None,
                 "violations": 0}, system="ezsegway"),
    ]
    results = build_sweep_results(spec, docs, [], 2)
    assert results["aggregates"]["skipped_groups"] == 1
    cell = results["aggregates"]["cells"]["single/fig1/p4update-sl"]
    assert cell["paired_runs"] == 0 and cell["mean_update_ms"] is None


def test_validate_sweep_results_rejects_malformed():
    with pytest.raises(ValueError, match="missing field 'signature'"):
        validate_sweep_results({"spec_hash": "x"})
    spec = load_sweep_spec({
        "name": "t", "systems": ["p4update-sl"], "topologies": ["fig1"],
        "scenarios": ["single"], "seeds": 1,
    })
    good = build_sweep_results(spec, [_doc(0, {"completed": True})], [], 1)
    broken = dict(good, shards_completed=5)
    with pytest.raises(ValueError, match="shards_completed"):
        validate_sweep_results(broken)
    keyless = {k: v for k, v in good["shards"][0].items() if k != "key"}
    with pytest.raises(ValueError, match="shard document missing field 'key'"):
        validate_sweep_results(dict(good, shards=[keyless]))


def test_shard_keys_ride_in_the_shard_documents(tmp_path, monkeypatch):
    """Serial, pooled and resumed fleets all merge to the keys
    ``expand`` produced, and the merge never re-expands the spec."""
    spec = load_sweep_spec({
        "name": "t", "systems": ["p4update-sl", "p4update-dl"],
        "topologies": ["fig1"], "scenarios": ["single"], "seeds": 1,
    })
    expected = [shard.key for shard in spec.expand()]
    runs = [
        run_sweep(spec, workers=1, cache_dir=str(tmp_path / "a")),
        run_sweep(spec, workers=2, cache_dir=str(tmp_path / "b")),
        run_sweep(spec, workers=1, cache_dir=str(tmp_path / "a"), resume=True),
    ]
    assert runs[2].cached_shards == 2
    expansions = []
    expand = SweepSpec.expand
    monkeypatch.setattr(
        SweepSpec, "expand", lambda self: expansions.append(1) or expand(self)
    )
    for run in runs:
        results = build_sweep_results(
            spec, run.shard_docs, run.failures, run.shards_total
        )
        assert [doc["key"] for doc in results["shards"]] == expected
    assert expansions == []


def test_sweep_manifest_round_trip_and_schema(tmp_path):
    """The consolidated manifest is a schema-valid BENCH manifest whose
    results tree passes the sweep-specific validator after reload."""
    spec_doc = {
        "name": "mini", "systems": ["p4update-sl"], "topologies": ["fig1"],
        "scenarios": ["single"], "seeds": 1,
    }
    spec = load_sweep_spec(spec_doc)
    run = run_sweep(spec, workers=1, cache_dir=str(tmp_path / "cache"))
    assert run.ok
    doc = load_manifest(merge_from_cache(spec_doc, tmp_path))
    assert doc["name"] == "sweep_mini"
    assert doc["params"] == spec.to_dict()
    validate_sweep_results(doc["results"])
    assert doc["results"]["signature"] == run.signature()


def test_sweep_manifest_merges_profiles(tmp_path):
    """Four B4 multi-flow shards, each long enough to be sampled: the
    manifest rebuilt from the cache holds exactly the per-target sum of
    the shards' samples."""
    spec_doc = {
        "name": "prof", "systems": ["p4update-sl"], "topologies": ["b4"],
        "scenarios": ["multi"], "seeds": 4,
    }
    run = run_sweep(
        load_sweep_spec(spec_doc), workers=1, cache_dir=str(tmp_path / "cache"),
        profile=True,
    )
    assert run.ok
    assert all("profile" in d for d in run.shard_docs)
    rows = [row for d in run.shard_docs for row in d["profile"]]
    doc = load_manifest(merge_from_cache(spec_doc, tmp_path))
    merged = doc["results"]["merged_profile"]
    assert merged == merge_samples(rows)
    assert sum(row["samples"] for row in merged) == sum(row["samples"] for row in rows) > 0
