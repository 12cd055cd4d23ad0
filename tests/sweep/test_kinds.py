"""The sweep-kind registry: a kind is one record, resolved lazily."""

import json
import subprocess
import sys

import pytest

from repro.harness.cli import main
from repro.obs.manifest import load_manifest
from repro.sweep.kinds import DEFAULT_KIND, KIND_TABLE, SweepKind, resolve_kind
from repro.sweep.spec import SweepSpecError, derive_shard_seed, load_sweep_spec

TOY_SPEC = {"name": "toys", "kind": "toy", "seed": 5, "count": 4, "factor": 3}


@pytest.fixture
def toy_kind(monkeypatch):
    """One table line registers the kind defined in toy_kind.py."""
    monkeypatch.setitem(KIND_TABLE, "toy", "tests.sweep.toy_kind:TOY")


def test_toy_kind_runs_through_sweep_run_at_any_worker_count(
    toy_kind, tmp_path, capsys
):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(TOY_SPEC))
    signatures = []
    for workers in (1, 2):
        out_dir = tmp_path / f"out{workers}"
        rc = main([
            "sweep", "run", str(path), "--workers", str(workers),
            "--cache-dir", str(tmp_path / f"cache{workers}"),
            "--out-dir", str(out_dir),
        ])
        assert rc == 0, capsys.readouterr()
        results = load_manifest(str(out_dir / "BENCH_sweep_toys.json"))["results"]
        assert results["shards_completed"] == 4
        seeds = [derive_shard_seed(5, "toy", "toys", i) for i in range(4)]
        assert results["aggregates"] == {
            "slots": [0, 1, 2, 3], "total": 3 * sum(seeds),
        }
        assert [d["kind"] for d in results["shards"]] == ["toy"] * 4
        signatures.append(results["signature"])
    assert signatures[0] == signatures[1]


def test_toy_kind_spec_is_validated_like_any_other(toy_kind):
    spec = load_sweep_spec(TOY_SPEC)
    assert spec.to_dict() == {**TOY_SPEC, "description": "", "obs": False}
    assert load_sweep_spec({"name": "t", "kind": "toy"}).body == {
        "count": 1, "factor": 2,
    }
    with pytest.raises(SweepSpecError, match="count >= 1"):
        load_sweep_spec({**TOY_SPEC, "count": 0})
    with pytest.raises(SweepSpecError, match=r"\['seeds'\].*'toy'"):
        load_sweep_spec({**TOY_SPEC, "seeds": 2})


def test_unregistered_kind_is_rejected():
    with pytest.raises(SweepSpecError, match="unknown sweep kind 'toy'"):
        load_sweep_spec(TOY_SPEC)


def test_every_in_tree_kind_resolves():
    assert DEFAULT_KIND == "experiment"
    assert set(KIND_TABLE) == {
        "experiment", "prep", "chaos", "serve", "interference", "compete",
        "ops", "fuzz",
    }
    for name in KIND_TABLE:
        kind = resolve_kind(name)
        assert isinstance(kind, SweepKind) and kind.name == name
        assert "name" not in kind.fields and "kind" not in kind.fields


def test_importing_the_sweep_layer_imports_no_workload_package():
    code = (
        "import sys, repro.sweep\n"
        "heavy = ('repro.serve', 'repro.ops', 'repro.fuzz', 'repro.algos',\n"
        "         'repro.harness', 'repro.chaos', 'repro.analysis')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
