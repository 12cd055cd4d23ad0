"""Operations sessions: drain semantics, determinism, event parity."""

import json

from repro.ops.session import OpsSession, build_session, run_session
from repro.ops.spec import load_session_spec
from tests.serve.test_pinned_sessions import EVENTS, MODES

#: Background churn on b4 with seed 1: council-ia carries transit
#: flows at t=2000 (the drain has real work to do).
DRAIN_DOC = {
    "name": "drain-test",
    "serve": {
        "name": "bg",
        "topology": "b4",
        "seed": 1,
        "flows": 10,
        "requests": 40,
        "mode": "open",
        "arrival_rate_per_s": 20.0,
        "horizon_ms": 15000.0,
    },
    "tenants": 4,
    "timeline": [
        {"at_ms": 2000.0, "op": "drain_switch", "switch": "council-ia"},
    ],
}


def _doc(**overrides):
    doc = json.loads(json.dumps(DRAIN_DOC))
    doc.update(overrides)
    return doc


def test_full_drain_leaves_zero_transit_flows():
    result = run_session(load_session_spec(_doc()))
    drains = [op for op in result.ops if op["op"] == "drain_switch"]
    assert len(drains) == 1
    drain = drains[0]
    assert drain["status"] == "completed"
    # The drain started with real transit flows and evacuated them all.
    assert drain["detail"]["transit_at_start"] > 0
    assert drain["detail"]["transit_at_end"] == 0
    moved = [m for m in drain["moves"] if m["outcome"] == "moved"]
    assert moved, "a real drain must move at least one flow"
    # No flow crosses the draining switch on its new path.
    for move in moved:
        assert "council-ia" not in move["target"][1:-1]
    assert result.consistent and not result.violations
    assert result.invariants_ok
    assert result.ops_summary()["drains_clean"]


def test_same_spec_runs_are_byte_identical():
    spec = load_session_spec(_doc())
    a = run_session(spec)
    b = run_session(spec)
    assert a.signature() == b.signature()
    assert json.dumps(a.to_results(), sort_keys=True) == json.dumps(
        b.to_results(), sort_keys=True
    )


def test_checkpoint_cadence_does_not_change_results():
    # Checkpoint tick events are engine events; a spec with a cadence
    # must still produce the same *signature basis* as runs of that
    # same spec whether or not a sink actually writes checkpoints.
    spec = load_session_spec(_doc(checkpoint_every_ms=3000.0))
    plain = run_session(spec)

    seen = []
    session = build_session(spec, sink=lambda s, index: seen.append(index))
    session.run()
    sunk = session.finalize()

    assert seen == [1, 2, 3, 4, 5]
    assert sunk.signature() == plain.signature()


def test_a_cadence_without_a_sink_collects_no_segment_rows(monkeypatch):
    # Only a sink reads a segment's rows, so a plain run keeps none.
    held = []
    tick = OpsSession._checkpoint_tick

    def counted(session, index):
        held.append(len(session._segment))
        tick(session, index)

    monkeypatch.setattr(OpsSession, "_checkpoint_tick", counted)
    run_session(load_session_spec(_doc(checkpoint_every_ms=3000.0)))
    assert held == [0, 0, 0, 0, 0]


def test_empty_timeline_matches_plain_serve_churn():
    # With no operations, the background churn must be byte-identical
    # to a plain serve run of the embedded spec — one ServiceSession
    # drives both — on every result key the two report.
    for workload in MODES.values():
        for events in EVENTS.values():
            _assert_churn_matches_plain_serve(workload, events)


def _assert_churn_matches_plain_serve(workload, events):
    from repro.serve.service import run_service
    from repro.serve.spec import load_serve_spec

    doc = _doc(timeline=[])
    doc["serve"].update(
        workload, events=events, params={"controller_update_timeout_ms": 500.0}
    )
    ops = run_session(load_session_spec(doc)).to_results()
    serve = run_service(load_serve_spec(doc["serve"])).to_results()
    differ = {
        "name",        # the session's vs the embedded spec's
        "signature",   # the session's also covers its (empty) ops list
        "slo",         # serve reports per-stage series, ops per-move ones
    }
    shared = set(ops) & set(serve)
    assert shared - differ == {
        "topology", "seed", "requests", "outcomes", "completed", "consistent",
        "violations", "invariants_ok", "peak_in_flight", "sim_time_ms",
        "events_processed", "trace_signature", "trace_dropped_events", "records",
    }
    for key in sorted(shared - differ):
        assert ops[key] == serve[key], (key, workload["mode"], len(events))
    assert ops["slo"]["e2e_ms"] == serve["slo"]["e2e_ms"]
    assert ops["ops"] == [] and ops["requests"] == 40


def test_undrain_reopens_switch_for_background_toggles():
    doc = _doc()
    doc["timeline"] = [
        {"at_ms": 2000.0, "op": "drain_switch", "switch": "council-ia"},
        {"at_ms": 6000.0, "op": "undrain_switch", "switch": "council-ia"},
    ]
    session = build_session(load_session_spec(doc))
    session.run()
    result = session.finalize()
    assert not session.draining
    assert not session.orchestrator.avoid_nodes
    statuses = {op["op"]: op["status"] for op in result.ops}
    assert statuses == {
        "drain_switch": "completed", "undrain_switch": "completed"
    }


def test_migrate_tenant_only_touches_its_tenant():
    doc = _doc()
    doc["timeline"] = [{"at_ms": 2000.0, "op": "migrate_tenant", "tenant": 1}]
    session = build_session(load_session_spec(doc))
    tenant_of = dict(session._tenant_of)
    session.run()
    result = session.finalize()
    migrate = result.ops[0]
    assert migrate["op"] == "migrate_tenant"
    for move in migrate["moves"]:
        assert tenant_of[move["flow"]] == 1


def test_rebalance_respects_max_moves():
    doc = _doc()
    doc["serve"]["congestion_aware"] = False
    doc["serve"]["link_capacity"] = 2.0
    doc["timeline"] = [{"at_ms": 3000.0, "op": "rebalance", "max_moves": 2}]
    result = run_session(load_session_spec(doc))
    rebalance = result.ops[0]
    assert rebalance["op"] == "rebalance"
    assert len(rebalance["moves"]) <= 2


def test_mid_drain_link_failure_parks_or_reroutes_never_strands():
    # The chaos-laden example spec: a link drops mid-drain and comes
    # back later.  Whatever happens, no move may end up stranded and
    # the run must stay consistent.
    from repro.ops.spec import load_session_spec_file

    spec = load_session_spec_file("examples/ops_drain.json")
    result = run_session(spec)
    summary = result.ops_summary()
    assert summary["moves_by_outcome"].get("stranded", 0) == 0
    assert summary["drains_clean"]
    assert result.consistent and result.invariants_ok
    assert result.ops_summary()["ops_by_status"] == {"completed": 4}
