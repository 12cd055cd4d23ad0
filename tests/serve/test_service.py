"""End-to-end acceptance for the update-request service.

The ISSUE-level criteria live here:

* a seeded run with >= 1000 concurrent-capable requests completes with
  zero consistency violations;
* the result signature is bit-identical across reruns and across
  sweep worker counts (1 vs 2 processes);
* concurrent orchestration beats the forced-serial baseline on
  completed updates per simulated second — strictly.
"""

import json
import os

import pytest

from repro.serve.service import run_service
from repro.serve.spec import ServeSpec, load_serve_spec
from repro.sweep.executor import run_sweep
from repro.serve.sweep_kind import aggregate_serve
from repro.sweep.merge import build_sweep_results
from repro.sweep.spec import load_sweep_spec

#: The acceptance workload: 1000 requests over 16 reroutable B4 flows,
#: arrivals fast enough that concurrency is the only way to keep up.
ACCEPTANCE = dict(
    name="acceptance",
    topology="b4",
    seed=3,
    mode="open",
    flows=16,
    requests=1000,
    arrival_rate_per_s=1000.0,
    queue_depth=64,
    shed_policy="park",
    conflict_policy="serialize",
    horizon_ms=600000.0,
)


@pytest.fixture(scope="module")
def acceptance_result():
    return run_service(ServeSpec(**ACCEPTANCE))


def test_acceptance_all_requests_complete(acceptance_result):
    result = acceptance_result
    assert len(result.records) == 1000
    assert result.completed == 1000
    assert result.outcome_counts == {"completed": 1000}


def test_acceptance_zero_violations(acceptance_result):
    assert acceptance_result.consistent, acceptance_result.violations
    assert acceptance_result.invariants_ok


def test_acceptance_actually_concurrent(acceptance_result):
    assert acceptance_result.peak_in_flight > 1


def test_acceptance_signature_deterministic(acceptance_result):
    rerun = run_service(ServeSpec(**ACCEPTANCE))
    assert rerun.signature() == acceptance_result.signature()
    assert rerun.to_results() == acceptance_result.to_results()


def test_acceptance_beats_forced_serial(acceptance_result):
    serial = run_service(ServeSpec(**{**ACCEPTANCE, "max_in_flight": 1}))
    assert serial.completed == 1000
    assert serial.peak_in_flight == 1
    assert serial.consistent and serial.invariants_ok
    assert (
        acceptance_result.throughput_per_s > serial.throughput_per_s
    ), (
        f"concurrent {acceptance_result.throughput_per_s:.2f}/s must beat "
        f"serial {serial.throughput_per_s:.2f}/s"
    )


def test_slo_summaries_populated(acceptance_result):
    slo = acceptance_result.slo
    for series in ("admission_wait_ms", "e2e_ms", "install_ms", "verify_ms"):
        assert slo[series]["count"] > 0, series
        assert slo[series]["p50"] is not None
        assert slo[series]["p99"] >= slo[series]["p50"]


# -- sweep integration --------------------------------------------------------

_SWEEP_SERVE = dict(
    name="serve-det",
    topology="b4",
    seed=0,
    mode="open",
    flows=8,
    requests=60,
    arrival_rate_per_s=400.0,
    conflict_policy="serialize",
    horizon_ms=300000.0,
)


def _sweep_spec():
    return load_sweep_spec(
        {
            "name": "serve-det",
            "kind": "serve",
            "seed": 0,
            "seeds": 2,
            "serve": _SWEEP_SERVE,
        }
    )


def test_sweep_signature_independent_of_worker_count(tmp_path):
    serial = run_sweep(
        _sweep_spec(), workers=1, cache_dir=str(tmp_path / "w1")
    )
    fleet = run_sweep(
        _sweep_spec(), workers=2, cache_dir=str(tmp_path / "w2")
    )
    assert serial.ok and fleet.ok
    assert serial.signature() == fleet.signature()


def test_sweep_serve_aggregates(tmp_path):
    spec = _sweep_spec()
    run = run_sweep(spec, workers=1, cache_dir=str(tmp_path / "cache"))
    assert run.ok
    agg = aggregate_serve(run.shard_docs)
    assert agg["runs"] == 2
    assert agg["deterministic"] is True
    assert agg["consistent"] is True
    assert agg["invariants_ok"] is True
    assert agg["requests"] == 120
    assert agg["mean_throughput_per_s"] > 0
    results = build_sweep_results(
        spec, run.shard_docs, run.failures, run.shards_total
    )
    assert results["aggregates"] == agg


def test_serve_cli_run_writes_manifest(tmp_path, capsys):
    from repro.harness.cli import main

    spec_path = tmp_path / "serve.json"
    spec_path.write_text(json.dumps(_SWEEP_SERVE))
    rc = main([
        "serve", "run", str(spec_path), "--causal",
        "--cache-dir", str(tmp_path / "cache"), "--out-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "OK" in out
    manifest = tmp_path / "BENCH_serve_serve-det.json"
    assert manifest.exists()
    doc = json.loads(manifest.read_text())
    assert doc["results"]["aggregates"]["consistent"] is True
    assert doc["results"]["signature"]
    # --causal leaves the signature untouched and writes the sidecar.
    sidecar = tmp_path / "TRACE_serve_serve-det.causal.jsonl.gz"
    assert sidecar.exists()
    assert doc["results"]["aggregates"]["attribution"]["requests"] > 0


def test_serve_cli_validate(tmp_path, capsys):
    from repro.harness.cli import main

    spec_path = tmp_path / "serve.json"
    spec_path.write_text(json.dumps(_SWEEP_SERVE))
    rc = main(["serve", "validate", str(spec_path)])
    assert rc == 0
    assert "is valid" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**_SWEEP_SERVE, "topology": "nonsense"}))
    rc = main(["serve", "validate", str(bad)])
    assert rc == 1


def test_serve_spec_round_trip():
    spec = ServeSpec(**ACCEPTANCE)
    assert load_serve_spec(spec.to_dict()) == spec


def test_example_smoke_spec_is_valid_and_consistent():
    here = os.path.dirname(__file__)
    path = os.path.join(here, "..", "..", "examples", "serve_smoke.json")
    with open(path) as fh:
        spec = load_serve_spec(json.load(fh))
    result = run_service(spec)
    assert result.consistent, result.violations
    assert result.invariants_ok
    assert result.completed > 0
    assert "unfinished" not in result.outcome_counts
