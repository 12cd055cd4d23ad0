"""Replay points: byte-identical resume at every kill point, and typed
refusals of every manifest that must not be replayed."""

import json
import os

import pytest

from repro.chaos.runner import trace_signature
from repro.obs import make_obs
from repro.loading import code_fingerprint
from repro.ops.checkpoint import (
    CheckpointError,
    CheckpointSink,
    StopSession,
    load_checkpoint,
    read_manifest,
)
from repro.ops.session import OpsSession, build_session, run_session
from repro.ops.spec import load_session_spec, load_session_spec_file
from repro.sim.engine import Engine
from repro.sim.trace import Trace
from tests.chaos.reference_signature import BLOCK
from tests.serve.test_pinned_sessions import MODES

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


def _doc():
    return json.loads(json.dumps(CHAOS_DOC))


def _spec():
    return load_session_spec(_doc())


def _canonical(result):
    return json.dumps(result.to_results(), sort_keys=True)


def _checkpointed(ck_dir, spec=None, stop_after=None, obs=None):
    """Run a session writing checkpoints into ``ck_dir``; returns it
    (stopped after ``stop_after``, or at its horizon)."""
    session = build_session(
        spec or _spec(), obs=obs, sink=CheckpointSink(ck_dir, stop_after=stop_after)
    )
    try:
        session.run()
    except StopSession:
        pass
    return session


def _edit_manifest(ck_dir, edit):
    manifest = read_manifest(ck_dir)
    edit(manifest)
    with open(os.path.join(ck_dir, "checkpoints.json"), "w") as handle:
        json.dump(manifest, handle)


@pytest.fixture
def engine_events(monkeypatch):
    """Counts the events any engine processes while the test runs."""
    stepped = []
    plain_step = Engine.step

    def counted(self):
        stepped.append(self)
        return plain_step(self)

    monkeypatch.setattr(Engine, "step", counted)
    return stepped


def _assert_resumes_from_every_index(spec, ck_dir, uninterrupted):
    for index in (1, 2, 3, 4):
        resumed = load_checkpoint(ck_dir, index)
        assert resumed.resumed_from == index
        assert resumed.checkpoint_index == index
        resumed.run()
        result = resumed.finalize()
        # The whole results document — records, ops, violations, trace
        # signature — must match the uninterrupted run byte for byte.
        assert _canonical(result) == _canonical(uninterrupted), (
            f"diverged from index {index}"
        )
        assert result.signature() == uninterrupted.signature()
        assert result.trace_sig == uninterrupted.trace_sig


def test_resume_at_every_checkpoint_is_byte_identical(tmp_path, shadow_checker):
    spec = _spec()
    uninterrupted = run_session(spec)

    ck_dir = str(tmp_path / "ckpts")
    sink = CheckpointSink(ck_dir)
    session = build_session(spec, sink=sink)
    session.run()
    assert _canonical(session.finalize()) == _canonical(uninterrupted)
    assert [entry["index"] for entry in sink.written] == [1, 2, 3, 4]
    _assert_resumes_from_every_index(spec, ck_dir, uninterrupted)
    assert shadow_checker


def _signed_segments(tmp_path, monkeypatch, spec):
    """Run ``spec`` with a checkpoint writer and check every row's digest
    against ``trace_signature`` over the rows of its segment, collected
    from row 0 by the test's own subscriber; returns the row count at
    build time and at each tick."""
    rows = []
    stream = Trace.stream

    def streaming(trace):
        rows.extend(trace)
        trace.subscribe(rows.append)
        stream(trace)

    monkeypatch.setattr(Trace, "stream", streaming)
    ticks = [0]
    writer = CheckpointSink(str(tmp_path / "ckpts"))

    def sink(session, index):
        ticks.append(len(rows))
        writer(session, index)

    session = build_session(spec, sink=sink)
    at_build = len(rows)
    session.run()
    result = session.finalize()
    assert [row["digest"] for row in writer.written] == [
        trace_signature(rows[start:end]) for start, end in zip(ticks, ticks[1:])
    ]
    assert trace_signature(rows) == result.trace_sig
    return at_build, ticks


def test_every_digest_signs_the_rows_of_its_segment(tmp_path, monkeypatch):
    """A streamed session signs each segment as it collected it: the
    rows before the first tick span more than one signature block and
    later segments straddle block boundaries."""
    spec = load_session_spec_file("examples/ops_drain.json")
    _, ticks = _signed_segments(tmp_path, monkeypatch, spec)
    assert ticks[1] > BLOCK
    assert any(start // BLOCK < end // BLOCK for start, end in zip(ticks[1:], ticks[2:]))


def test_a_closed_loop_first_digest_signs_the_rows_recorded_at_wire(
    tmp_path, monkeypatch
):
    """A closed-loop service submits its first requests while the
    session is wired, before any tick is scheduled: segment 1 opens
    with those rows."""
    with open("examples/ops_drain.json") as handle:
        doc = json.load(handle)
    del doc["serve"]["arrival_rate_per_s"]
    doc["serve"].update(MODES["closed"])
    at_build, _ = _signed_segments(tmp_path, monkeypatch, load_session_spec(doc))
    assert at_build > 0


def test_a_resume_without_a_sink_collects_no_rows_after_its_tick(tmp_path, monkeypatch):
    ck_dir = str(tmp_path / "ckpts")
    _checkpointed(ck_dir)
    held = []
    tick = OpsSession._checkpoint_tick

    def counted(session, index):
        held.append(len(session._segment))
        tick(session, index)

    monkeypatch.setattr(OpsSession, "_checkpoint_tick", counted)
    load_checkpoint(ck_dir, 1).run()
    # The replay's verifier signs segment 1; nothing reads the rest.
    assert held[0] > 0 and held[1:] == [0, 0, 0]


def test_stop_after_kill_point_then_resume(tmp_path, shadow_checker):
    ck_dir = str(tmp_path / "ckpts")
    spec = _spec()
    uninterrupted = run_session(spec)

    session = build_session(spec, sink=CheckpointSink(ck_dir, stop_after=2))
    with pytest.raises(StopSession) as excinfo:
        session.run()
    assert excinfo.value.index == 2
    assert read_manifest(ck_dir)["checkpoints"][-1]["index"] == 2

    # Defaults to the latest.
    resumed = load_checkpoint(ck_dir, sink=CheckpointSink(ck_dir))
    resumed.run()
    result = resumed.finalize()
    assert _canonical(result) == _canonical(uninterrupted)
    # The resumed process kept checkpointing past the kill point.
    assert read_manifest(ck_dir)["checkpoints"][-1]["index"] == 4
    # The replayed checker ran with the reference checker beside it
    # (compared at teardown).
    assert resumed.service.checker in [shadow.shadows for shadow in shadow_checker]


def test_checkpoint_bytes_do_not_depend_on_sink(tmp_path):
    # Rows depend on the run only: a manifest written straight through
    # and one written by a run stopped at checkpoint 2 and then resumed
    # are the same bytes.
    straight = str(tmp_path / "straight")
    _checkpointed(straight)
    killed = str(tmp_path / "killed")
    _checkpointed(killed, stop_after=2)
    assert [r["index"] for r in read_manifest(killed)["checkpoints"]] == [1, 2]
    assert (
        read_manifest(killed)["checkpoints"]
        == read_manifest(straight)["checkpoints"][:2]
    )
    resumed = load_checkpoint(killed, sink=CheckpointSink(killed))
    resumed.run()
    files = [open(os.path.join(d, "checkpoints.json"), "rb").read()
             for d in (straight, killed)]
    assert files[0] == files[1]
    assert os.listdir(killed) == ["checkpoints.json"]


def test_corrupt_checkpoint_is_refused(tmp_path):
    """An edited segment digest fails the replay at its tick, naming the
    index and both digests."""
    ck_dir = str(tmp_path / "ckpts")
    _checkpointed(ck_dir, stop_after=3)
    recorded = read_manifest(ck_dir)["checkpoints"][1]["digest"]
    edited = "0" * 64

    def edit(manifest):
        manifest["checkpoints"][1]["digest"] = edited

    _edit_manifest(ck_dir, edit)
    with pytest.raises(CheckpointError) as excinfo:
        load_checkpoint(ck_dir, 3)
    message = str(excinfo.value)
    assert "checkpoint 2 does not replay: digest" in message
    assert edited in message and recorded in message
    # A replay that stops before the edited tick never reads it.
    assert load_checkpoint(ck_dir, 1).engine.now == 3000.0


def test_checkpoint_dir_is_bound_to_one_spec(tmp_path, engine_events):
    ck_dir = str(tmp_path / "ckpts")
    session = _checkpointed(ck_dir, stop_after=1)
    before = open(os.path.join(ck_dir, "checkpoints.json"), "rb").read()
    assert os.listdir(ck_dir) == ["checkpoints.json"]

    other_doc = _doc()
    other_doc["tenants"] = 2
    sink = CheckpointSink(ck_dir)
    other = build_session(load_session_spec(other_doc), sink=sink)
    stepped = len(engine_events)
    # Refused when the sink opens: before the foreign session runs a
    # single event ...
    with pytest.raises(CheckpointError, match="different spec"):
        sink.open(other)
    assert other.engine.processed_events == 0
    assert len(engine_events) == stepped
    # ... and, by a sink never opened, at its first tick, before
    # anything is written.
    with pytest.raises(CheckpointError, match="different spec"):
        other.run()
    assert sink.written == []
    assert open(os.path.join(ck_dir, "checkpoints.json"), "rb").read() == before
    assert load_checkpoint(ck_dir, 1).engine.now == session.engine.now


def test_a_checkpointed_session_reads_and_hashes_once(tmp_path, monkeypatch):
    """The sink keeps its manifest: one read and one spec hash for the
    session, one write per tick."""
    import repro.ops.checkpoint as checkpoint
    from repro.ops.spec import SessionSpec

    calls = {"read": 0, "hash": 0, "write": 0}

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(checkpoint, "read_stamped", counting("read", checkpoint.read_stamped))
    monkeypatch.setattr(checkpoint, "write_stamped", counting("write", checkpoint.write_stamped))
    monkeypatch.setattr(SessionSpec, "spec_hash", counting("hash", SessionSpec.spec_hash))
    sink = CheckpointSink(str(tmp_path / "ckpts"))
    build_session(load_session_spec_file("examples/ops_drain.json"), sink=sink).run()
    assert len(sink.written) >= 10
    assert calls == {"read": 1, "hash": 1, "write": len(sink.written)}


def test_load_from_empty_or_missing_dir_fails_loudly(tmp_path):
    with pytest.raises(CheckpointError, match="no checkpoint manifest"):
        load_checkpoint(str(tmp_path / "nope"))
    with pytest.raises(CheckpointError, match="no checkpoint manifest"):
        read_manifest(str(tmp_path))


def test_unknown_index_fails_with_available_list(tmp_path):
    ck_dir = str(tmp_path / "ckpts")
    _checkpointed(ck_dir, stop_after=1)
    with pytest.raises(CheckpointError, match=r"\[1\]"):
        load_checkpoint(ck_dir, 7)


@pytest.mark.parametrize(
    "field,value,message",
    [("code_fingerprint", "0" * 64, "written by code fingerprint '0000")],
)
def test_foreign_checkpoint_is_refused_before_replay(
    tmp_path, engine_events, field, value, message
):
    # A manifest another build wrote may record a run this code no
    # longer makes, and a layout change is a code change too.  Changed
    # code never resumes an old run: the remedy is a re-run.
    ck_dir = str(tmp_path / "ckpts")
    session = _checkpointed(ck_dir, stop_after=1)
    manifest = read_manifest(ck_dir)
    assert "format" not in manifest
    assert manifest["code_fingerprint"] == code_fingerprint()
    _edit_manifest(ck_dir, lambda manifest: manifest.update({field: value}))

    stepped = len(engine_events)
    with pytest.raises(CheckpointError) as excinfo:
        load_checkpoint(ck_dir)
    assert len(engine_events) == stepped
    assert message in str(excinfo.value)
    # Both sides are named.
    assert code_fingerprint() in str(excinfo.value)
    # Nor may this build write into a directory another build started:
    # a sink is refused when it opens, before it writes a row.
    before = open(os.path.join(ck_dir, "checkpoints.json"), "rb").read()
    with pytest.raises(CheckpointError, match="code fingerprint"):
        CheckpointSink(ck_dir).open(session)
    assert len(engine_events) == stepped
    assert open(os.path.join(ck_dir, "checkpoints.json"), "rb").read() == before


def _truncate(ck_dir):
    path = os.path.join(ck_dir, "checkpoints.json")
    body = open(path, "rb").read()
    open(path, "wb").write(body[: len(body) // 2])


def _edit_spec(ck_dir):
    _edit_manifest(ck_dir, lambda manifest: manifest["spec"].update(tenants=2))


def _drop_row(ck_dir):
    _edit_manifest(ck_dir, lambda manifest: manifest["checkpoints"].pop(0))


def _drop_spec(ck_dir):
    _edit_manifest(ck_dir, lambda manifest: manifest.pop("spec"))


@pytest.mark.parametrize(
    "damage,message",
    [
        (_truncate, "unreadable manifest"),
        (_edit_spec, "the spec document hashes to"),
        (_drop_spec, "has a malformed manifest (KeyError('spec'))"),
        (_drop_row, "lacks the rows [1]"),
    ],
    ids=["truncated", "edited-spec", "no-spec", "missing-row"],
)
def test_damaged_manifest_is_refused_before_replay(
    tmp_path, engine_events, damage, message
):
    ck_dir = str(tmp_path / "ckpts")
    _checkpointed(ck_dir, stop_after=2)
    damage(ck_dir)
    stepped = len(engine_events)
    with pytest.raises(CheckpointError) as excinfo:
        load_checkpoint(ck_dir, 2)
    assert message in str(excinfo.value)
    assert len(engine_events) == stepped


def test_instrumented_checkpoint_run_resumes_byte_identically(tmp_path):
    """A ``--obs`` run records ``obs`` in its manifest, so the replay is
    instrumented too and the resumed metrics are the whole run's."""
    spec = _spec()
    whole_obs = make_obs()
    uninterrupted = run_session(spec, obs=whole_obs)

    ck_dir = str(tmp_path / "ckpts")
    _checkpointed(ck_dir, stop_after=2, obs=make_obs())
    assert read_manifest(ck_dir)["obs"] is True
    resumed = load_checkpoint(ck_dir)
    assert resumed.obs.enabled
    resumed.run()
    result = resumed.finalize()
    assert _canonical(result) == _canonical(uninterrupted)
    assert json.dumps(resumed.obs.snapshot()["metrics"], sort_keys=True) == (
        json.dumps(whole_obs.snapshot()["metrics"], sort_keys=True)
    )
    # An uninstrumented run replays uninstrumented.
    plain = str(tmp_path / "plain")
    _checkpointed(plain, stop_after=1)
    assert read_manifest(plain)["obs"] is False
    assert not load_checkpoint(plain).obs.enabled


def test_code_fingerprint_is_a_stable_sha256():
    assert len(code_fingerprint()) == 64
    assert code_fingerprint() is code_fingerprint()     # once per process
