"""Service-level acceptance for per-request causal tracing.

The ISSUE-level contracts live here:

* every terminal request's segment durations sum to its end-to-end
  latency within 1e-9 ms;
* enabling causal tracing leaves the simulated run bit-identical —
  trace signature AND result signature match a causal=False run;
* attribution is worker-count independent: a 2-worker sweep produces
  byte-identical rows, summaries and DAGs to the serial run;
* chaos (link flap + update watchdog) populates the retry_backoff and
  recovery segments, and the queue-depth gauge cross-check holds;
* attribution is a view of the trace: a tracker rebuilt from the
  exported trace file equals the live one, and the serve-smoke sidecar
  stays the bytes its committed sha256 names.
"""

import gzip
import hashlib
import json
import pathlib

import pytest

from repro.harness.cli import main
from repro.obs.causal import SEGMENTS, CausalTracker
from repro.obs.context import make_obs
from repro.obs.tracefile import export_trace_jsonl, iter_trace_jsonl
from repro.serve.service import ServiceSession, run_service
from repro.serve.spec import ServeSpec
from repro.sim.trace import (
    KIND_REQUEST_ADMITTED,
    KIND_REQUEST_PUSHED,
    KIND_REQUEST_REQUEUED,
    KIND_REQUEST_WAIT,
    KIND_RETRANSMIT,
    KIND_RETRIGGER,
)
from repro.sweep.executor import run_sweep
from repro.sweep.spec import load_sweep_spec

REPO = pathlib.Path(__file__).resolve().parents[2]

#: The serve-smoke workload (mirrors examples/serve_smoke.json): a
#: mid-run link flap forces watchdog retriggers and recovery requeues.
SMOKE = dict(
    name="causal-smoke",
    topology="b4",
    seed=0,
    mode="open",
    flows=8,
    requests=60,
    arrival_rate_per_s=400.0,
    queue_depth=16,
    shed_policy="park",
    conflict_policy="serialize",
    horizon_ms=300000.0,
    params={"controller_update_timeout_ms": 2000.0},
    events=(
        {"time_ms": 40.0, "kind": "link_down",
         "node_a": "dalles-or", "node_b": "council-ia"},
        {"time_ms": 400.0, "kind": "link_up",
         "node_a": "dalles-or", "node_b": "council-ia"},
    ),
)


@pytest.fixture(scope="module")
def traced():
    return run_service(ServeSpec(**SMOKE, causal=True))


@pytest.fixture(scope="module")
def untraced():
    return run_service(ServeSpec(**SMOKE))


def test_every_request_has_an_attribution_row(traced):
    rows = traced.attribution["rows"]
    assert len(rows) == len(traced.records) == 60
    assert [r["request_id"] for r in rows] == sorted(
        rec["request_id"] for rec in traced.records
    )


def test_segments_sum_to_end_to_end(traced):
    for row in traced.attribution["rows"]:
        residual = abs(sum(row["segments"].values()) - row["e2e_ms"])
        assert residual <= 1e-9, (row["request_id"], residual)
        assert set(row["segments"]) == set(SEGMENTS)
    assert traced.attribution["summary"]["residual_max_ms"] <= 1e-9


def test_e2e_matches_request_records(traced):
    by_id = {rec["request_id"]: rec for rec in traced.records}
    for row in traced.attribution["rows"]:
        rec = by_id[row["request_id"]]
        assert row["outcome"] == rec["outcome"]
        assert row["e2e_ms"] == pytest.approx(
            rec["completed_ms"] - rec["submitted_ms"], abs=1e-9
        )


def test_causal_run_is_bit_identical_to_untraced(traced, untraced):
    on, off = traced.to_results(), untraced.to_results()
    assert on["trace_signature"] == off["trace_signature"]
    assert traced.signature() == untraced.signature()
    assert on["records"] == off["records"]


def test_chaos_populates_retry_and_recovery():
    # Seed 1 of this workload exercises the §11 watchdog: at least one
    # request must spend time waiting out a retrigger and in recovery.
    result = run_service(ServeSpec(**{**SMOKE, "seed": 1}, causal=True))
    totals = {s: 0.0 for s in SEGMENTS}
    for row in result.attribution["rows"]:
        for segment, value in row["segments"].items():
            totals[segment] += value
    assert totals["retry_backoff"] > 0.0
    assert totals["recovery"] > 0.0
    assert totals["dataplane_verify"] > 0.0


def test_queue_depth_at_admit_recorded(traced):
    depths = [
        rec["queue_depth_at_admit"]
        for rec in traced.records
        if rec["admitted_ms"] is not None
    ]
    assert depths and all(isinstance(d, int) and d >= 0 for d in depths)
    # The spec caps the queue: the recorded depth can never exceed it.
    assert max(depths) <= SMOKE["queue_depth"]


def test_queue_depth_cross_checks_gauge_and_causal_event():
    from repro.obs.context import make_obs

    obs = make_obs()
    result = run_service(ServeSpec(**SMOKE, causal=True), obs=obs)
    # The causal "admitted" event carries the same depth the record
    # stores — one fact, two observation paths.
    by_id = {rec["request_id"]: rec for rec in result.records}
    admitted = 0
    for dag in result.causal:
        for event in dag["events"]:
            if event["kind"] == "admitted":
                rec = by_id[dag["request_id"]]
                assert event["queue_depth"] == rec["queue_depth_at_admit"]
                admitted += 1
    assert admitted > 0
    # The serve_queue_depth gauge exists and has fully drained by the
    # end of the run (every request reached a terminal outcome).
    assert obs.metrics.value("serve_queue_depth") == 0.0


def test_dags_cover_all_requests(traced):
    dags = traced.causal
    assert len(dags) == 60
    for dag in dags:
        assert dag["events"][0]["kind"] == "submitted"
        assert dag["events"][-1]["kind"] == "done"
        assert len(dag["edges"]) == len(dag["events"]) - 1
        # Edges tile the lifetime: telescoping sum equals e2e.
        assert sum(e["dur_ms"] for e in dag["edges"]) == pytest.approx(
            dag["e2e_ms"], abs=1e-9
        )


def _sweep(workers: int):
    sweep = load_sweep_spec(
        {
            "name": "causal-sweep",
            "kind": "serve",
            "seed": 0,
            "seeds": 2,
            "serve": ServeSpec(**SMOKE, causal=True).to_dict(),
        }
    )
    run = run_sweep(sweep, workers=workers, cache_dir=None, resume=False)
    assert run.ok
    dags = []
    rows = []
    for doc in sorted(run.shard_docs, key=lambda d: int(d["index"])):
        dags.extend(doc.pop("causal"))
        rows.extend(doc["results"]["attribution"]["rows"])
    return run, dags, rows


def test_attribution_identical_across_worker_counts():
    run1, dags1, rows1 = _sweep(workers=1)
    run2, dags2, rows2 = _sweep(workers=2)
    assert json.dumps(rows1, sort_keys=True) == json.dumps(rows2, sort_keys=True)
    assert json.dumps(dags1, sort_keys=True) == json.dumps(dags2, sort_keys=True)
    for d1, d2 in zip(run1.shard_docs, run2.shard_docs):
        assert d1["results"] == d2["results"]


# -- attribution is a view of the trace ---------------------------------------


def _session(spec: ServeSpec):
    """A causal run's result and the trace it recorded."""
    session = ServiceSession(spec, make_obs(causal=True))
    session.wire()
    session.run()
    return session.close(), session.deployment.network.trace


def _from_file(trace, path) -> CausalTracker:
    export_trace_jsonl(trace, path)
    return CausalTracker.from_trace(iter_trace_jsonl(path))


@pytest.mark.parametrize("seed", [0, 1])
def test_from_trace_file_equals_the_live_tracker(seed, tmp_path):
    result, trace = _session(ServeSpec(**{**SMOKE, "seed": seed}, causal=True))
    rebuilt = _from_file(trace, tmp_path / "trace.jsonl.gz")
    assert json.dumps(rebuilt.dags()) == json.dumps(result.causal)
    assert json.dumps(rebuilt.attribution_rows()) == json.dumps(
        result.attribution["rows"]
    )
    # Seed 1's flap requeues two requests and fires the §11 watchdog.
    counts = {kind: trace.count_of_kind(kind) for kind in (
        KIND_REQUEST_ADMITTED, KIND_REQUEST_WAIT, KIND_REQUEST_PUSHED,
        KIND_REQUEST_REQUEUED, KIND_RETRIGGER,
    )}
    assert counts[KIND_REQUEST_ADMITTED] == counts[KIND_REQUEST_PUSHED] == 60
    assert counts[KIND_REQUEST_WAIT] > 0
    if seed == 1:
        assert counts[KIND_REQUEST_REQUEUED] > 0 and counts[KIND_RETRIGGER] > 0


def test_retransmits_under_a_switch_crash_attribute_from_the_trace(tmp_path):
    """Reliable control with a crashed switch: every retransmit carries
    its flow, and the rebuilt tracker still equals the live one."""
    spec = ServeSpec(
        **{
            **SMOKE,
            "params": {**SMOKE["params"], "reliable_control": True},
            "events": (
                {"time_ms": 40.0, "kind": "switch_crash", "node_a": "council-ia"},
                {"time_ms": 400.0, "kind": "switch_restart", "node_a": "council-ia"},
            ),
        },
        causal=True,
    )
    result, trace = _session(spec)
    retransmits = [e for e in trace if e.kind == KIND_RETRANSMIT]
    assert retransmits and all("flow" in e.detail for e in retransmits)
    kinds = [e["kind"] for dag in result.causal for e in dag["events"]]
    assert KIND_RETRANSMIT in kinds
    rebuilt = _from_file(trace, tmp_path / "trace.jsonl")
    assert json.dumps(rebuilt.dags()) == json.dumps(result.causal)


def test_wait_is_recorded_only_when_the_reason_changes():
    _, trace = _session(ServeSpec(**{**SMOKE, "seed": 1}, causal=True))
    reason: dict[int, str] = {}
    waits = 0
    for event in trace:
        request = event.detail.get("request")
        if event.kind == "request_submitted":
            reason[request] = "queue_wait"
        elif event.kind == KIND_REQUEST_REQUEUED:
            reason[request] = "recovery"
        elif event.kind == KIND_REQUEST_WAIT:
            assert event.detail["to"] != reason[request], event
            reason[request] = event.detail["to"]
            waits += 1
    assert waits > 0


def test_the_smoke_sidecar_is_the_committed_bytes(tmp_path, capsys):
    """``serve run --causal`` over ``examples/serve_smoke.json`` writes the
    DAGs whose sha256 (decompressed) ``serve_smoke.causal.sha256`` names:
    attribution drift shows here even when trace signatures are re-pinned."""
    assert main([
        "serve", "run", str(REPO / "examples" / "serve_smoke.json"),
        "--seeds", "2", "--workers", "1", "--causal",
        "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path),
    ]) == 0
    capsys.readouterr()
    sidecar = tmp_path / "TRACE_serve_serve-smoke.causal.jsonl.gz"
    with gzip.open(sidecar, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    want = (REPO / "examples" / "serve_smoke.causal.sha256").read_text().strip()
    assert digest == want
