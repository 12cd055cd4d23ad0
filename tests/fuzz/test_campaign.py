"""Campaigns: spec validation, budget split, shard determinism,
worker-count-independent signatures, crash containment."""

import argparse
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzz.campaign import (
    FuzzSpec,
    FuzzSpecError,
    fuzz_sweep_spec,
    load_fuzz_spec,
    merge_fuzz_campaign,
    run_fuzz_shard,
    split_budget,
)
from repro.sweep.cli import run_fleet, write_fleet_manifest

SMALL = {"name": "t", "budget": 8, "shards": 2}


def run_campaign(spec, workers=1, cache_dir=None, resume=False):
    """A campaign run the way ``repro fuzz run`` runs it."""
    flags = argparse.Namespace(workers=workers, cache_dir=cache_dir, resume=resume)
    return merge_fuzz_campaign(spec, run_fleet(fuzz_sweep_spec(spec), flags))


# -- spec --------------------------------------------------------------------


def test_spec_round_trip():
    spec = load_fuzz_spec(dict(SMALL, kinds=["plan", "serve"]))
    assert load_fuzz_spec(spec.to_dict()) == spec


@pytest.mark.parametrize(
    "broken, match",
    [
        (dict(SMALL, name=""), "non-empty 'name'"),
        (dict(SMALL, budget=0), "budget >= 1"),
        (dict(SMALL, shards=0), "shards >= 1"),
        (dict(SMALL, shards=9), "shards <= budget"),
        (dict(SMALL, kinds=[]), "empty kinds"),
        (dict(SMALL, kinds=["nope"]), "unknown fuzz kinds"),
        (dict(SMALL, mutation_prob=1.5), "mutation_prob"),
        (dict(SMALL, max_shrunk=-1), "max_shrunk"),
        (dict(SMALL, bogus=1), "unknown fuzz spec field"),
    ],
)
def test_spec_validation(broken, match):
    with pytest.raises(FuzzSpecError, match=match):
        load_fuzz_spec(broken)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=32),
)
def test_split_budget_properties(budget, shards):
    parts = split_budget(budget, shards)
    assert len(parts) == shards
    assert sum(parts) == budget
    assert max(parts) - min(parts) <= 1
    assert parts == sorted(parts, reverse=True)  # remainder goes early


# -- shard body --------------------------------------------------------------


def test_shard_deterministic_and_json_safe():
    a = run_fuzz_shard(SMALL, seed=5, shard_index=0, budget=6)
    b = run_fuzz_shard(SMALL, seed=5, shard_index=0, budget=6)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert sum(a["outcomes"].values()) == 6
    assert a["coverage"] == sorted(a["coverage"])


def test_generator_crash_contained(monkeypatch):
    import repro.fuzz.campaign as campaign_mod

    real = campaign_mod.generate_case

    def flaky(seed, index, kinds):
        if index == 1:
            raise RuntimeError("boom at index 1")
        return real(seed, index, kinds)

    monkeypatch.setattr(campaign_mod, "generate_case", flaky)
    doc = run_fuzz_shard(SMALL, seed=5, shard_index=0, budget=4)
    # The campaign kept going: all four cases accounted for.
    assert sum(doc["outcomes"].values()) == 4
    crashes = [c for c in doc["crashes"] if c["stage"] == "generate"]
    assert len(crashes) == 1
    crash = crashes[0]
    assert crash["case_index"] == 1
    assert crash["error_type"] == "RuntimeError"
    assert "boom at index 1" in crash["message"]
    assert "boom at index 1" in crash["traceback_tail"]


def test_oracle_crash_contained(monkeypatch):
    import repro.fuzz.oracles as oracles_mod

    real = oracles_mod.evaluate_case
    calls: list = []

    def flaky(case):
        calls.append(case.kind)
        if len(calls) == 3:  # case 2: no generator crash precedes it
            raise ValueError("bad payload")
        return real(case)

    monkeypatch.setattr(oracles_mod, "evaluate_case", flaky)
    doc = run_fuzz_shard(SMALL, seed=5, shard_index=0, budget=4)
    assert sum(doc["outcomes"].values()) == 4
    assert doc["outcomes"]["crash"] == 1
    crashes = [c for c in doc["crashes"] if c["stage"] == "oracle"]
    assert len(crashes) == 1
    crash = crashes[0]
    assert crash["seed"] == 5 and crash["case_index"] == 2
    assert crash["kind"] == calls[2]
    assert crash["error_type"] == "ValueError"
    assert crash["message"] == "bad payload"
    assert "bad payload" in crash["traceback_tail"]


# -- the fold ----------------------------------------------------------------


def _shard_doc(index, budget, outcomes, findings):
    return {
        "index": index,
        "results": {
            "budget": budget,
            "outcomes": outcomes,
            "coverage": [f"k{index}", "shared"],
            "findings": [
                {"key": list(key), "shard_index": index, "case_index": case}
                for key, case in findings
            ],
            "crashes": [],
        },
    }


def test_aggregate_dedupes_findings_by_key():
    from repro.fuzz.sweep_kind import aggregate_fuzz

    shared = ("plan", "violation", "static", "plan:unknown-node")
    docs = [
        _shard_doc(0, 3, {"pass": 1, "violation": 2},
                   [(("serve", "violation", "serve"), 0), (shared, 2)]),
        _shard_doc(1, 2, {"pass": 0, "violation": 2},
                   [(shared, 0), (("chaos", "violation", "chaos"), 1)]),
    ]
    folded = aggregate_fuzz(docs)
    assert folded["cases"] == 5
    assert folded["outcomes"] == {
        "crash": 0, "divergence": 0, "pass": 1, "violation": 4,
    }
    assert folded["coverage"] == ["k0", "k1", "shared"]
    assert folded["coverage_count"] == 3
    keys = [tuple(f["key"]) for f in folded["findings"]]
    assert keys == sorted(keys) and len(keys) == 3
    winner = folded["findings"][keys.index(shared)]
    assert (winner["shard_index"], winner["case_index"]) == (0, 2)
    assert folded["crashes"] == []


# -- fleet -------------------------------------------------------------------


def test_campaign_signature_worker_count_independent(tmp_path):
    spec = FuzzSpec(name="wc", seed=3, budget=8, shards=2, shrink=False)
    serial = run_campaign(
        spec, workers=1, cache_dir=str(tmp_path / "serial")
    )
    pooled = run_campaign(
        spec, workers=2, cache_dir=str(tmp_path / "pooled")
    )
    assert not serial["shards_failed"] and not pooled["shards_failed"]
    assert serial["signature"] == pooled["signature"]
    assert serial == pooled


def test_campaign_resume_reuses_cache(tmp_path):
    spec = FuzzSpec(name="rs", seed=3, budget=8, shards=2, shrink=False)
    first = run_campaign(spec, workers=1, cache_dir=str(tmp_path))
    again = run_campaign(
        spec, workers=1, cache_dir=str(tmp_path), resume=True
    )
    assert again["signature"] == first["signature"]


def test_campaign_shrinks_findings_to_corpus_docs(tmp_path):
    from repro.fuzz.corpus import expected_key, validate_corpus_doc
    from repro.fuzz.shrink import shrink_measure

    spec = FuzzSpec(
        name="sh", seed=3, budget=8, shards=2, kinds=("plan",), max_shrunk=2
    )
    result = run_campaign(spec, workers=1, cache_dir=str(tmp_path))
    assert result["findings"], "plan-only campaign at this seed must find"
    assert result["shrunk"]
    keys = {tuple(str(k) for k in f["key"]) for f in result["findings"]}
    for doc in result["shrunk"]:
        validate_corpus_doc(doc)
        assert expected_key(doc) in keys
        original = next(
            f
            for f in result["findings"]
            if tuple(str(k) for k in f["key"]) == expected_key(doc)
        )
        assert shrink_measure(doc["payload"]) <= shrink_measure(
            original["case"]["payload"]
        )


def test_manifest_written_and_deterministic(tmp_path):
    spec = FuzzSpec(name="mf", seed=3, budget=4, shards=1, shrink=False)
    result = run_campaign(spec, workers=1, cache_dir=str(tmp_path / "c"))
    path = write_fleet_manifest(
        "fuzz_mf", spec, result, argparse.Namespace(out_dir=str(tmp_path))
    )
    assert path.endswith("BENCH_fuzz_mf.json")
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest["results"] == result
    assert manifest["params"]["name"] == "mf"

    rerun = run_campaign(
        spec, workers=1, cache_dir=str(tmp_path / "c2")
    )
    path2 = write_fleet_manifest(
        "fuzz_mf", spec, rerun, argparse.Namespace(out_dir=str(tmp_path / "again"))
    )
    with open(path2, encoding="utf-8") as handle:
        manifest2 = json.load(handle)
    assert manifest2["results"] == manifest["results"]


def test_fuzz_sweep_spec_expansion():
    from repro.sweep.spec import load_sweep_spec

    sweep = load_sweep_spec(
        {"name": "t", "kind": "fuzz", "runs": 3, "fuzz": dict(SMALL, budget=7)}
    )
    shards = sweep.expand()
    assert [s.payload["budget"] for s in shards] == [3, 2, 2]
    assert len({s.seed for s in shards}) == 3
    assert all(s.payload["kind"] == "fuzz" for s in shards)
    # No budget: the FuzzSpec default (32 cases) is split, not 1.
    defaults = load_sweep_spec(
        {"name": "t", "kind": "fuzz", "runs": 2, "fuzz": {"name": "x"}}
    )
    assert [s.payload["budget"] for s in defaults.expand()] == [16, 16]


def test_fuzz_sweep_spec_validation():
    from repro.sweep.spec import SweepSpecError, load_sweep_spec

    with pytest.raises(SweepSpecError, match="needs a 'fuzz' object"):
        load_sweep_spec({"name": "t", "kind": "fuzz"})
    with pytest.raises(SweepSpecError, match="invalid fuzz spec"):
        load_sweep_spec(
            {"name": "t", "kind": "fuzz", "fuzz": {"name": "", "budget": 1}}
        )
    # More shards than cases would expand to zero-case shards.
    with pytest.raises(SweepSpecError, match="runs <= fuzz budget"):
        load_sweep_spec(
            {"name": "t", "kind": "fuzz", "runs": 5,
             "fuzz": {"name": "x", "budget": 3}}
        )
