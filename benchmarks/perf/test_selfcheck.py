"""Self-check of the perf ledger (``python -m pytest benchmarks/perf -q``).

Outside tier-1's ``testpaths`` on purpose: it launches the benchmark.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

import run  # noqa: E402

workloads, spans, layers = run._import_benchmark()

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def small_ledger(tmp_path_factory: pytest.TempPathFactory) -> dict:
    """Every workload at scale 0.05, one child, plus the traced pass."""
    path = tmp_path_factory.mktemp("ledger") / "ledger.json"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "0.05",
         "--children", "1", "--traced", "--out", str(path)],
        capture_output=True, text=True, timeout=300,
    )
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    with open(path, encoding="utf-8") as handle:
        ledger = json.load(handle)
    ledger["elapsed_s"] = elapsed
    ledger["stdout"] = proc.stdout
    return ledger


def test_benchmark_json_matches_the_code(benchmark_json: dict) -> None:
    assert benchmark_json == layers.contract()
    assert [w["name"] for w in benchmark_json["workloads"]] == list(workloads.BY_NAME)
    for entry in benchmark_json["workloads"]:
        assert entry["why"] == workloads.BY_NAME[entry["name"]].why
        assert len(entry["why"]) <= 200
    bounds = {m["name"]: m["bound"] for m in benchmark_json["end_to_end"]}
    assert list(bounds) == ["setup_s", "ops_per_cpu_s", "peak_rss_mb"]
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(run.EXACT) <= {m["name"] for m in benchmark_json["per_layer"]}
    names = [m["name"] for m in benchmark_json["end_to_end"] + benchmark_json["per_layer"]]
    names += list(workloads.BY_NAME)
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert benchmark_json["paths"] == ["benchmarks/perf"]


def test_small_scale_run_is_quick_and_clean(small_ledger: dict) -> None:
    assert small_ledger["elapsed_s"] < 30.0
    assert list(small_ledger["workloads"]) == list(workloads.BY_NAME)
    for name, result in small_ledger["workloads"].items():
        assert result["errors"] == [], name
        assert result["signature"], name


def test_emitted_names_are_declared(small_ledger: dict, benchmark_json: dict) -> None:
    declared = {
        m["name"] for m in benchmark_json["end_to_end"] + benchmark_json["per_layer"]
    }
    for name, result in small_ledger["workloads"].items():
        emitted = set(result["metrics"]) | set(result["layers"])
        assert emitted <= declared, (name, emitted - declared)
        assert all(NAME.fullmatch(metric) for metric in emitted)
        for metric in benchmark_json["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0


def test_span_self_times_sum_to_the_root(small_ledger: dict) -> None:
    for name in small_ledger["workloads"]:
        with open(os.path.join(run.OUT, f"trace_{name}.json"), encoding="utf-8") as handle:
            trace = json.load(handle)
        root_ms = trace["aggregates"][spans.ROOT_SPAN]["total_ms"]
        assert root_ms > 0
        # Every span of the traced repeat nests under the root span, so
        # the layers' self times plus the root's own (unattributed) are
        # the root's duration.
        assert sum(trace["layer_self_ms"].values()) == pytest.approx(root_ms, rel=0.01)
        assert trace["metrics"]["host.unattributed_share"] == pytest.approx(
            trace["layer_self_ms"]["unattributed"] / root_ms
        )
        assert len(trace["raw_spans"]) <= spans.RAW_LIMIT
        assert trace["raw_spans"][0][3] == -1          # the root has no parent


def test_traced_and_untraced_signatures_agree(small_ledger: dict) -> None:
    # The traced pass compares its repeat against the untraced one
    # before it and reports a mismatch as a check error (asserted empty
    # above); here: what it reports equals what the ledger reports.
    for name, result in small_ledger["workloads"].items():
        for metric in run.EXACT:
            if metric in result["metrics"]:
                assert result["layers"][metric] == result["metrics"][metric]["value"], name


def test_wrappers_are_uninstalled() -> None:
    from repro.serve import service
    from repro.sim.engine import Engine
    from repro.sim.trace import Trace

    workload = workloads.BY_NAME["serve_b4_8f"]
    state = workload.setup(seed=3, scale=0.05)
    before = {
        (cls, attr): cls.__dict__[attr]
        for cls in (Engine, Trace) for attr in ("step", "schedule", "record", "subscribe")
        if attr in cls.__dict__
    }
    run_service = service.run_service
    plain = workload.check(state, workload.run(state))

    recorder = spans.install()
    try:
        assert spans.installed()
        assert Engine.__dict__["step"] is not before[(Engine, "step")]
        traced = workload.check(state, workload.run(state))
    finally:
        spans.uninstall()
    assert not spans.installed()
    for (cls, attr), original in before.items():
        assert cls.__dict__[attr] is original
    assert service.run_service is run_service
    assert workloads.run_service is run_service
    assert recorder.count_of("sim.engine:Engine.step") > 0
    assert recorder.count_of("consistency:LiveChecker._on_event") > 0
    assert (traced.signature, traced.trace_signature) == (
        plain.signature, plain.trace_signature
    )
    spans.uninstall()  # idempotent


def test_compare_verdicts() -> None:
    def around(centre: float) -> dict:
        return run.summarize([centre + d for d in (0.0, 1.0, -1.0, 0.5, -0.5)])

    steady = around(100.0)
    assert run.verdict("ops_per_cpu_s", steady, around(100.2)) == "same"
    assert run.verdict("ops_per_cpu_s", steady, around(70.0)) == "worse"
    assert run.verdict("ops_per_cpu_s", steady, around(130.0)) == "better"
    assert run.verdict("setup_s", steady, around(140.0)) == "worse"   # lower is better
    noisy = run.summarize([70.0, 130.0, 90.0, 115.0, 100.0])
    also_noisy = run.summarize([75.0, 125.0, 85.0, 110.0, 95.0])
    assert run.verdict("ops_per_cpu_s", noisy, also_noisy) == "unresolved"
    exact = {"value": 296.45, "exact": True}
    assert run.verdict("sim_p50_ms", exact, {"value": 296.45, "exact": True}) == "same"
    assert run.verdict("sim_p50_ms", exact, {"value": 310.0, "exact": True}) == "worse"
    assert run.verdict("violations", {"value": 0}, {"value": 1}) == "worse"
    assert run.verdict("failed_share", {"value": 0.03}, {"value": 0.031}) == "same"
