"""Checkpoint/restore: byte-identical resume at every kill point."""

import hashlib
import json
import os
import pickle

import pytest

from repro.ops.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    CheckpointSink,
    StopSession,
    checkpoint_status,
    code_fingerprint,
    load_checkpoint,
    read_manifest,
    write_checkpoint,
)
from repro.ops.session import build_session, run_session
from repro.ops.spec import load_session_spec

#: Chaos-laden session: a link drops mid-drain and recovers; the
#: controller watchdog (§11) re-drives updates stranded on the dead
#: link.  Checkpoints land before, during and after the failure window.
CHAOS_DOC = {
    "name": "ck-test",
    "serve": {
        "name": "bg",
        "topology": "b4",
        "seed": 1,
        "flows": 10,
        "requests": 30,
        "mode": "open",
        "arrival_rate_per_s": 20.0,
        "horizon_ms": 12000.0,
        "params": {"controller_update_timeout_ms": 500.0},
        "events": [
            {"time_ms": 2500.0, "kind": "link_down",
             "node_a": "lenoir-nc", "node_b": "dublin-ie"},
            {"time_ms": 6000.0, "kind": "link_up",
             "node_a": "lenoir-nc", "node_b": "dublin-ie"},
        ],
    },
    "tenants": 4,
    "checkpoint_every_ms": 3000.0,
    "timeline": [
        {"at_ms": 2000.0, "op": "drain_switch", "switch": "council-ia"},
        {"at_ms": 8000.0, "op": "undrain_switch", "switch": "council-ia"},
    ],
}


def _spec():
    return load_session_spec(json.loads(json.dumps(CHAOS_DOC)))


def _canonical(result):
    return json.dumps(result.to_results(), sort_keys=True)


def test_resume_at_every_checkpoint_is_byte_identical(tmp_path):
    spec = _spec()
    uninterrupted = run_session(spec)
    baseline = _canonical(uninterrupted)

    ck_dir = str(tmp_path / "ckpts")
    session = build_session(spec)
    sink = CheckpointSink(ck_dir)
    session._sink = sink
    session.run()
    full = session.finalize()
    assert _canonical(full) == baseline
    indices = [entry["index"] for entry in sink.written]
    assert indices == [1, 2, 3, 4]

    for index in indices:
        resumed = load_checkpoint(ck_dir, index)
        assert resumed.resumed_from == index
        resumed.run()
        result = resumed.finalize()
        # The whole results document — records, ops, violations, trace
        # signature — must match the uninterrupted run byte for byte.
        assert _canonical(result) == baseline, f"diverged from index {index}"
        assert result.signature() == uninterrupted.signature()
        assert result.trace_sig == uninterrupted.trace_sig


def test_stop_after_kill_point_then_resume(tmp_path, shadow_checker):
    ck_dir = str(tmp_path / "ckpts")
    spec = _spec()
    uninterrupted = run_session(spec)

    session = build_session(spec)
    session._sink = CheckpointSink(ck_dir, stop_after=2)
    with pytest.raises(StopSession) as excinfo:
        session.run()
    assert excinfo.value.index == 2
    assert checkpoint_status(ck_dir)["latest_index"] == 2

    resumed = load_checkpoint(ck_dir)  # defaults to the latest
    resumed._sink = CheckpointSink(ck_dir)
    resumed.run()
    result = resumed.finalize()
    assert _canonical(result) == _canonical(uninterrupted)
    # The resumed process kept checkpointing past the kill point.
    assert checkpoint_status(ck_dir)["latest_index"] == 4
    # The checker, its caches and its link to the state were restored
    # with the reference checker beside them (compared at teardown).
    assert resumed.service.checker in [shadow.shadows for shadow in shadow_checker]


def test_checkpoint_bytes_do_not_depend_on_sink(tmp_path):
    # __getstate__ drops _sink: a checkpoint written by a stopping run
    # and one written by a straight-through run are identical.
    spec = _spec()
    dirs = []
    for stop_after in (1, None):
        ck_dir = str(tmp_path / f"ck_{stop_after}")
        session = build_session(spec)
        session._sink = CheckpointSink(ck_dir, stop_after=stop_after)
        try:
            session.run()
        except StopSession:
            pass
        dirs.append(ck_dir)
    first = open(os.path.join(dirs[0], "checkpoint_000001.pkl"), "rb").read()
    second = open(os.path.join(dirs[1], "checkpoint_000001.pkl"), "rb").read()
    assert first == second


def test_corrupt_checkpoint_is_refused(tmp_path):
    ck_dir = str(tmp_path / "ckpts")
    session = build_session(_spec())
    session._sink = CheckpointSink(ck_dir, stop_after=1)
    with pytest.raises(StopSession):
        session.run()
    path = os.path.join(ck_dir, "checkpoint_000001.pkl")
    blob = open(path, "rb").read()
    open(path, "wb").write(blob[:-10] + b"corruption")
    with pytest.raises(CheckpointError, match="corrupt"):
        load_checkpoint(ck_dir, 1)


def _files(directory):
    """name -> sha256 of every file in ``directory``."""
    return {
        name: hashlib.sha256(open(os.path.join(directory, name), "rb").read()).hexdigest()
        for name in sorted(os.listdir(directory))
    }


def test_checkpoint_dir_is_bound_to_one_spec(tmp_path):
    ck_dir = str(tmp_path / "ckpts")
    session = build_session(_spec())
    session._sink = CheckpointSink(ck_dir, stop_after=1)
    with pytest.raises(StopSession):
        session.run()
    before = _files(ck_dir)
    assert sorted(before) == ["checkpoint_000001.pkl", "checkpoints.json"]

    other_doc = json.loads(json.dumps(CHAOS_DOC))
    other_doc["tenants"] = 2
    other = build_session(load_session_spec(other_doc))
    with pytest.raises(CheckpointError, match="different spec"):
        write_checkpoint(ck_dir, other, 1)
    # Refused before anything was written: the owner's checkpoint survives.
    assert _files(ck_dir) == before
    assert load_checkpoint(ck_dir, 1).engine.now == session.engine.now


def test_load_from_empty_or_missing_dir_fails_loudly(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint manifest"):
        load_checkpoint(str(tmp_path / "nope"))
    with pytest.raises(CheckpointError, match="no checkpoint manifest"):
        read_manifest(str(tmp_path))


def test_unknown_index_fails_with_available_list(tmp_path):
    ck_dir = str(tmp_path / "ckpts")
    session = build_session(_spec())
    session._sink = CheckpointSink(ck_dir, stop_after=1)
    with pytest.raises(StopSession):
        session.run()
    with pytest.raises(CheckpointError, match=r"\[1\]"):
        load_checkpoint(ck_dir, 7)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("format", 2, "has format 2; this build reads format 4"),
        ("code_fingerprint", "0" * 64, "written by code fingerprint '0000"),
    ],
)
def test_foreign_checkpoint_is_refused_before_unpickling(
    tmp_path, monkeypatch, field, value, message
):
    # A pickle restores objects by class path: bytes written by another
    # format or another build's code must never reach pickle.loads.
    ck_dir = str(tmp_path / "ckpts")
    session = build_session(_spec())
    session._sink = CheckpointSink(ck_dir, stop_after=1)
    with pytest.raises(StopSession):
        session.run()
    manifest = read_manifest(ck_dir)
    assert manifest["format"] == CHECKPOINT_FORMAT == 4
    assert manifest["code_fingerprint"] == code_fingerprint()
    assert checkpoint_status(ck_dir)["code_fingerprint"] == code_fingerprint()
    manifest[field] = value
    with open(os.path.join(ck_dir, "checkpoints.json"), "w") as handle:
        json.dump(manifest, handle)

    def unreachable(_blob):
        pytest.fail("pickle.loads reached for a foreign checkpoint")

    monkeypatch.setattr("repro.ops.checkpoint.pickle.loads", unreachable)
    with pytest.raises(CheckpointError) as excinfo:
        load_checkpoint(ck_dir)
    assert message in str(excinfo.value)
    # Both sides are named.
    assert (str(CHECKPOINT_FORMAT) if field == "format" else code_fingerprint()) in str(
        excinfo.value
    )
    # Nor may this build write into a directory another build started,
    # neither a new index nor over the existing one.
    before = _files(ck_dir)
    for index in (2, 1):
        with pytest.raises(CheckpointError):
            write_checkpoint(ck_dir, session, index)
    assert _files(ck_dir) == before


@pytest.mark.parametrize("stale", ["manifest", "payload"])
def test_format_3_checkpoint_is_refused_whole(tmp_path, stale):
    """Format 3 kept packet numbering in a ``"globals"`` section beside
    the session; this build keeps it inside the network.  A format-3
    file is refused, never resumed with that section ignored — whether
    its manifest says so or only the pickled meta does."""
    ck_dir = str(tmp_path / "ckpts")
    session = build_session(_spec())
    session._sink = CheckpointSink(ck_dir, stop_after=1)
    with pytest.raises(StopSession):
        session.run()
    manifest = read_manifest(ck_dir)
    entry = manifest["checkpoints"][0]
    path = os.path.join(ck_dir, entry["file"])
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    payload["meta"]["format"] = 3
    payload["globals"] = {"p4.packet_ids": 1234}
    blob = pickle.dumps(payload)
    with open(path, "wb") as handle:
        handle.write(blob)
    entry["sha256"] = hashlib.sha256(blob).hexdigest()
    if stale == "manifest":
        manifest["format"] = 3
    with open(os.path.join(ck_dir, "checkpoints.json"), "w") as handle:
        json.dump(manifest, handle)
    with pytest.raises(CheckpointError, match="has format 3; this build reads format 4"):
        load_checkpoint(ck_dir)


def test_code_fingerprint_is_a_stable_sha256():
    assert len(code_fingerprint()) == 64
    assert code_fingerprint() is code_fingerprint()     # once per process
