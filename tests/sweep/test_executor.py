"""Crash isolation, retries, resume and the status heartbeat.

Uses the worker's test-only fault hook (``run_sweep(inject=...)``):
``always`` exhausts retries into a ShardFailure, ``once`` fails the
first attempt only, ``kill`` hard-exits the worker process (the
BrokenProcessPool path).  The hook travels outside the spec, so the
spec hash — and with it the shard cache — is unaffected.
"""

import json
import os
import shutil

import pytest

import repro.loading
from repro.harness.cli import main
from repro.sweep.executor import (
    cache_root,
    load_cached_shard,
    read_status,
    run_sweep,
    shard_cache_path,
)
from repro.sweep.spec import load_sweep_spec

TINY = {
    "name": "tiny",
    "systems": ["p4update-sl", "p4update-dl"],
    "topologies": ["fig1"],
    "scenarios": ["single"],
    "seeds": 2,
}

FAST_BACKOFF = {"retries": 1, "backoff_base_s": 0.0}


def _spec():
    return load_sweep_spec(TINY)


def test_injected_failure_becomes_shard_failure_not_fleet_abort(tmp_path):
    spec = _spec()
    run = run_sweep(
        spec, workers=1, cache_dir=str(tmp_path),
        inject={"mode": "always", "shard_ids": ["s0001"]},
        **FAST_BACKOFF,
    )
    assert not run.ok
    assert len(run.failures) == 1
    failure = run.failures[0]
    assert failure["shard_id"] == "s0001"
    assert failure["attempts"] == 2  # retries + 1
    assert failure["error_type"] == "InjectedShardFault"
    assert "injected failure" in failure["message"]
    assert failure["traceback_tail"]
    # Every other shard completed and was cached.
    assert len(run.shard_docs) == run.shards_total - 1
    root = cache_root(spec, str(tmp_path))
    assert not os.path.exists(shard_cache_path(root, "s0001"))
    assert os.path.exists(shard_cache_path(root, "s0000"))


def test_transient_failure_succeeds_on_retry(tmp_path):
    marker_dir = tmp_path / "markers"
    marker_dir.mkdir()
    run = run_sweep(
        _spec(), workers=1, cache_dir=str(tmp_path / "cache"),
        inject={
            "mode": "once", "shard_ids": ["s0002"],
            "marker_dir": str(marker_dir),
        },
        **FAST_BACKOFF,
    )
    assert run.ok
    assert len(run.shard_docs) == run.shards_total
    assert (marker_dir / "s0002.failed-once").exists()


def test_resume_reuses_cache_and_reruns_only_missing(tmp_path):
    spec = _spec()
    first = run_sweep(spec, workers=1, cache_dir=str(tmp_path))
    assert first.ok
    root = cache_root(spec, str(tmp_path))
    os.remove(shard_cache_path(root, "s0001"))
    os.remove(shard_cache_path(root, "s0003"))

    resumed = run_sweep(spec, workers=1, cache_dir=str(tmp_path), resume=True)
    assert resumed.ok
    assert resumed.cached_shards == first.shards_total - 2
    assert resumed.signature() == first.signature()


def test_resume_ignores_cache_of_a_different_spec(tmp_path):
    spec = _spec()
    run_sweep(spec, workers=1, cache_dir=str(tmp_path))
    other = load_sweep_spec({**TINY, "seeds": 3})
    assert cache_root(other, str(tmp_path)) != cache_root(spec, str(tmp_path))
    resumed = run_sweep(other, workers=1, cache_dir=str(tmp_path), resume=True)
    assert resumed.cached_shards == 0


def test_cached_shard_rejects_corrupt_or_foreign_documents(tmp_path):
    spec = _spec()
    run_sweep(spec, workers=1, cache_dir=str(tmp_path))
    root = cache_root(spec, str(tmp_path))
    shard = spec.expand()[0]
    good = load_cached_shard(root, shard, spec.spec_hash())
    assert good is not None and good["shard_id"] == "s0000"
    assert load_cached_shard(root, shard, "deadbeef") is None
    with open(shard_cache_path(root, shard.shard_id), "w") as handle:
        handle.write("{corrupt")
    assert load_cached_shard(root, shard, spec.spec_hash()) is None


def test_resume_names_and_counts_each_cache_file_it_refuses(tmp_path, capsys):
    spec = _spec()
    first = run_sweep(spec, workers=1, cache_dir=str(tmp_path))
    root = cache_root(spec, str(tmp_path))
    # s0000: a write cut short.  s0001: a shard file of another spec
    # (same shard id) copied into this spec's cache directory.
    truncated = shard_cache_path(root, "s0000")
    text = open(truncated).read()
    open(truncated, "w").write(text[: len(text) // 2])
    other = load_sweep_spec({**TINY, "seeds": 3})
    run_sweep(other, workers=1, cache_dir=str(tmp_path))
    swapped = shard_cache_path(root, "s0001")
    shutil.copy(
        shard_cache_path(cache_root(other, str(tmp_path)), "s0001"), swapped
    )
    os.remove(shard_cache_path(root, "s0002"))      # merely missing: silent
    capsys.readouterr()

    resumed = run_sweep(spec, workers=1, cache_dir=str(tmp_path), resume=True)

    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert truncated in lines[0] and "unreadable" in lines[0]
    assert swapped in lines[1]
    assert f"written for spec {other.spec_hash()[:16]}" in lines[1]
    # All three were recomputed; only the refused two are counted.
    assert resumed.ok and resumed.cached_shards == 1
    assert resumed.signature() == first.signature()
    status = read_status(root)
    assert status["cache_rejected"] == 2 and status["cached"] == 1
    assert load_cached_shard(root, spec.expand()[0], spec.spec_hash()) is not None


def test_resume_recomputes_shards_written_by_other_code(
    tmp_path, capsys, monkeypatch
):
    """A cached shard is only valid for the code that computed it:
    ``--resume`` refuses one stamped with another code fingerprint by
    name, counts it and recomputes it, and ``sweep merge`` refuses it.
    Other code is first one shard's edited stamp, then a different
    fingerprint for the whole cache."""
    spec = _spec()
    first = run_sweep(spec, workers=1, cache_dir=str(tmp_path))
    root = cache_root(spec, str(tmp_path))
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(TINY))

    def merge_fails_listing(shard_ids):
        capsys.readouterr()
        assert main([
            "sweep", "merge", str(spec_path), "--cache-dir", str(tmp_path),
            "--out-dir", str(tmp_path / "out"),
        ]) == 1
        error = capsys.readouterr().err.splitlines()[-1]
        assert f"{len(shard_ids)} shard(s) not in cache" in error
        assert error.endswith(", ".join(shard_ids))

    def resume_refuses(shard_ids):
        capsys.readouterr()
        resumed = run_sweep(spec, workers=1, cache_dir=str(tmp_path), resume=True)
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == len(shard_ids)
        for line, shard_id in zip(lines, shard_ids):
            assert shard_cache_path(root, shard_id) in line
            assert "code fingerprint" in line
        assert read_status(root)["cache_rejected"] == len(shard_ids)
        assert resumed.cached_shards == resumed.shards_total - len(shard_ids)
        assert resumed.signature() == first.signature()

    stale = shard_cache_path(root, "s0001")
    doc = json.load(open(stale))
    doc["code_fingerprint"] = "0" * 64
    json.dump(doc, open(stale, "w"))
    merge_fails_listing(["s0001"])
    resume_refuses(["s0001"])

    monkeypatch.setattr(repro.loading, "code_fingerprint", lambda: "1" * 64)
    every = [shard.shard_id for shard in spec.expand()]
    merge_fails_listing(every)
    resume_refuses(every)


def test_status_heartbeat_is_readable_from_outside(tmp_path):
    spec = _spec()
    run_sweep(spec, workers=1, cache_dir=str(tmp_path))
    status = read_status(cache_root(spec, str(tmp_path)))
    assert status is not None
    assert status["name"] == spec.name
    assert status["spec_hash"] == spec.spec_hash()
    assert status["state"] == "finished"
    assert status["completed"] == 4 and status["failed"] == 0
    assert status["remaining"] == 0
    assert status["workers"] == 1
    assert status["cache_rejected"] == 0


def test_progress_callback_sees_every_completion(tmp_path):
    events = []
    run = run_sweep(
        _spec(), workers=1, cache_dir=str(tmp_path),
        progress=lambda state, event: events.append(
            (event, state.completed, state.failed)
        ),
    )
    assert run.ok
    assert events[0][0] == "started"
    assert events[-1] == ("finished", 4, 0)
    assert [e for e in events if e[0] == "shard_completed"] == [
        ("shard_completed", i, 0) for i in range(1, 5)
    ]


def test_obs_counters_track_the_fleet(tmp_path):
    from repro.obs import make_obs

    obs = make_obs()
    run = run_sweep(_spec(), workers=1, cache_dir=str(tmp_path), obs=obs)
    assert run.ok
    snapshot = obs.metrics.snapshot()
    gauges = {
        name: series[0]["value"]
        for name, series in snapshot.items()
        if series and series[0].get("type") == "gauge"
    }
    assert gauges["sweep_shards_completed"] == 4
    assert gauges["sweep_shards_failed"] == 0
    assert gauges["sweep_shards_remaining"] == 0


def test_invalid_worker_count_is_rejected(tmp_path):
    with pytest.raises(ValueError, match="workers"):
        run_sweep(_spec(), workers=0, cache_dir=str(tmp_path))


def test_worker_kill_is_contained_and_resume_completes(tmp_path):
    """The acceptance scenario: a worker hard-death (os._exit) mid-sweep
    costs that shard its attempts, never the completed shards; a resume
    without the fault finishes the fleet with the clean signature."""
    spec = _spec()
    clean = run_sweep(spec, workers=1, cache_dir=str(tmp_path / "clean"))

    killed = run_sweep(
        spec, workers=2, cache_dir=str(tmp_path / "k"), retries=0,
        backoff_base_s=0.0, inject={"mode": "kill", "shard_ids": ["s0001"]},
    )
    assert not killed.ok
    assert any(f["shard_id"] == "s0001" for f in killed.failures)
    # BrokenProcessPool may take innocent in-flight shards down with
    # it (one attempt each, retries=0 here) — how many complete before
    # the pool breaks is timing-dependent — but every shard that DID
    # complete survives on disk and in the run.
    for doc in killed.shard_docs:
        assert doc["results"]

    resumed = run_sweep(
        spec, workers=2, cache_dir=str(tmp_path / "k"), resume=True,
    )
    assert resumed.ok
    assert resumed.cached_shards == len(killed.shard_docs)
    assert resumed.signature() == clean.signature()


def test_cache_documents_are_valid_json_with_spec_hash(tmp_path):
    spec = _spec()
    run_sweep(spec, workers=1, cache_dir=str(tmp_path))
    root = cache_root(spec, str(tmp_path))
    for shard in spec.expand():
        with open(shard_cache_path(root, shard.shard_id)) as handle:
            doc = json.load(handle)
        assert doc["spec_hash"] == spec.spec_hash()
        assert doc["shard_id"] == shard.shard_id
        assert doc["index"] == shard.index
