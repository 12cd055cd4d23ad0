"""BENCH manifest build/validate/write semantics."""

import importlib.util
import json
import pathlib
import re
import sys

import pytest

from repro.obs.context import make_obs
from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    build_manifest,
    load_manifest,
    manifest_path,
    validate_manifest,
    write_manifest,
)
from repro.sim.trace import SIGNATURE_FORMAT


def test_build_manifest_is_schema_valid():
    doc = build_manifest("demo", params={"runs": 3}, results={"x": 1.0}, seed=7)
    assert doc["schema"] == MANIFEST_SCHEMA
    assert doc["name"] == "demo"
    assert doc["params"] == {"runs": 3}
    assert doc["seed"] == 7
    assert doc["metrics"] == {} and doc["spans"] == []
    validate_manifest(doc)


def test_manifest_records_the_trace_signature_format():
    doc = build_manifest("demo", results={"trace_signature": "ab"})
    assert doc["signature_format"] == SIGNATURE_FORMAT == 2


def _bench_compare(monkeypatch):
    """``scripts/bench_compare.py`` imported as a module."""
    path = pathlib.Path(__file__).resolve().parents[2] / "scripts" / "bench_compare.py"
    spec = importlib.util.spec_from_file_location("bench_compare", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_compare", module)
    spec.loader.exec_module(module)
    return module


def test_bench_compare_skips_signatures_only_across_formats(tmp_path, monkeypatch):
    compare = _bench_compare(monkeypatch).compare
    results = {"trace_signature": "aa", "spec_hash": "h", "events": 10}
    base = write_manifest("run", results=results, out_dir=str(tmp_path / "a"))
    moved = dict(results, trace_signature="bb")
    current = write_manifest("run", results=moved, out_dir=str(tmp_path / "b"))

    regressions, _ = compare(base, current, 0.0, exact=["*"])
    assert [delta.key for delta in regressions] == ["trace_signature"]

    old = json.load(open(base))
    del old["signature_format"]                 # written before format 2
    json.dump(old, open(base, "w"))
    regressions, notes = compare(base, current, 0.0, exact=["*"])
    assert regressions == []
    assert "trace-signature formats 1 and 2 differ; 1 signature leaf(s) not compared" in notes[0]
    old["results"]["spec_hash"] = "other"       # everything else still gates
    json.dump(old, open(base, "w"))
    regressions, _ = compare(base, current, 0.0, exact=["*"])
    assert [delta.key for delta in regressions] == ["spec_hash"]


def test_truncated_manifest_is_named(tmp_path, monkeypatch, capsys):
    """A manifest cut short fails naming its file, in ``load_manifest``
    and in ``bench_compare``, which is handed two."""
    good = write_manifest("run", results={"x": 1.0}, out_dir=str(tmp_path / "a"))
    cut = write_manifest("run", results={"x": 1.0}, out_dir=str(tmp_path / "b"))
    text = open(cut).read()
    open(cut, "w").write(text[: len(text) // 2])
    with pytest.raises(ValueError, match=re.escape(f"{cut}: invalid JSON")):
        load_manifest(cut)
    assert _bench_compare(monkeypatch).main([good, cut]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cut}: invalid JSON")


def test_build_manifest_captures_obs():
    obs = make_obs()
    obs.metrics.counter("messages_sent", node="v1").inc(3)
    with obs.spans.span("experiment"):
        pass
    doc = build_manifest("demo", obs=obs)
    assert doc["metrics"]["messages_sent"][0]["value"] == 3
    assert doc["spans"][0]["name"] == "experiment"


def test_validate_lists_every_problem():
    with pytest.raises(ValueError) as err:
        validate_manifest({"schema": 99, "name": ""})
    message = str(err.value)
    assert "unsupported schema version 99" in message
    assert "empty manifest name" in message
    assert "missing field 'results'" in message


def test_validate_rejects_non_dict():
    with pytest.raises(ValueError):
        validate_manifest([1, 2, 3])


def test_manifest_path_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path))
    assert manifest_path("abc") == str(tmp_path / "BENCH_abc.json")


def test_write_load_round_trip(tmp_path):
    path = write_manifest(
        "demo", params={"runs": 2}, results={"speedup": 4.0},
        seed=0, out_dir=str(tmp_path),
    )
    doc = load_manifest(path)
    assert doc["results"] == {"speedup": 4.0}
    # The file is plain JSON.
    with open(path) as handle:
        assert json.load(handle)["name"] == "demo"


def test_second_write_replaces_the_first(tmp_path):
    """A manifest is one run's record: writing the same name again
    replaces the file, it never unions with what is on disk."""
    obs = make_obs()
    obs.metrics.counter("c").inc()
    write_manifest(
        "replaced", params={"a": 1}, results={"cell_a": 1.0},
        out_dir=str(tmp_path), obs=obs,
    )
    path = write_manifest(
        "replaced", params={"b": 2}, results={"cell_b": 2.0},
        out_dir=str(tmp_path),
    )
    doc = load_manifest(path)
    assert doc["params"] == {"b": 2}
    assert doc["results"] == {"cell_b": 2.0}
    assert doc["metrics"] == {} and doc["spans"] == []


def test_merge_overwrites_same_key(tmp_path):
    write_manifest("m2", results={"x": 1.0}, out_dir=str(tmp_path))
    path = write_manifest("m2", results={"x": 9.0}, out_dir=str(tmp_path))
    assert load_manifest(path)["results"] == {"x": 9.0}


def test_corrupt_existing_manifest_is_replaced(tmp_path):
    target = tmp_path / "BENCH_m3.json"
    target.write_text("not json at all")
    path = write_manifest("m3", results={"ok": 1}, out_dir=str(tmp_path))
    assert load_manifest(path)["results"] == {"ok": 1}


def test_duplicate_names_in_different_out_dirs_do_not_merge(tmp_path):
    """Same manifest name, different out dirs: two independent files —
    the out-dir override really overrides."""
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    path_a = write_manifest("dup", results={"x": 1.0}, out_dir=str(a_dir))
    path_b = write_manifest("dup", results={"y": 2.0}, out_dir=str(b_dir))
    assert path_a != path_b
    assert load_manifest(path_a)["results"] == {"x": 1.0}
    assert load_manifest(path_b)["results"] == {"y": 2.0}


def test_out_dir_beats_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_DIR", str(tmp_path / "env"))
    path = write_manifest(
        "prio", results={"z": 3.0}, out_dir=str(tmp_path / "explicit"),
    )
    assert path == str(tmp_path / "explicit" / "BENCH_prio.json")
    assert load_manifest(path)["results"] == {"z": 3.0}


def test_write_manifest_creates_missing_out_dir(tmp_path):
    nested = tmp_path / "deep" / "er"
    path = write_manifest("mk", results={"ok": 1.0}, out_dir=str(nested))
    assert nested.is_dir()
    assert load_manifest(path)["results"] == {"ok": 1.0}


def test_consolidated_sweep_manifest_is_schema_valid(tmp_path):
    """The sweep layer's consolidated manifest is a plain schema-1
    manifest: loadable here, with the sweep results tree passing its
    own validator."""
    from repro.sweep.executor import run_sweep
    from repro.sweep.merge import validate_sweep_results
    from repro.sweep.spec import load_sweep_spec

    from tests.sweep.test_merge import merge_from_cache

    spec_doc = {
        "name": "obscheck", "systems": ["p4update-sl"],
        "topologies": ["fig1"], "scenarios": ["single"], "seeds": 1,
    }
    spec = load_sweep_spec(spec_doc)
    run_sweep(spec, workers=1, cache_dir=str(tmp_path / "cache"))
    path = merge_from_cache(spec_doc, tmp_path)
    doc = load_manifest(path)
    validate_manifest(doc)
    assert doc["name"] == "sweep_obscheck"
    assert doc["seed"] == spec.seed
    validate_sweep_results(doc["results"])
    # A second write of the same sweep replaces the first.
    assert merge_from_cache(spec_doc, tmp_path) == path
    again = load_manifest(path)
    assert again["results"]["signature"] == doc["results"]["signature"]
