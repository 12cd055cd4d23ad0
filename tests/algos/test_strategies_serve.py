"""Every registered strategy drives the example smoke workload clean.

The ISSUE-level criteria: zero live-checker violations per strategy,
invariants intact, and deterministic signatures for the strategies
this PR introduced (the pre-existing ones are covered by the serve
acceptance suite).
"""

import json
import os

import pytest

from repro.algos.registry import strategy_names
from repro.serve.service import run_service
from repro.serve.spec import load_serve_spec


def _smoke_spec(strategy: str):
    here = os.path.dirname(__file__)
    path = os.path.join(here, "..", "..", "examples", "serve_smoke.json")
    with open(path) as fh:
        doc = json.load(fh)
    doc["strategy"] = strategy
    return load_serve_spec(doc)


@pytest.mark.parametrize("strategy", strategy_names())
def test_strategy_serves_smoke_clean(strategy):
    result = run_service(_smoke_spec(strategy))
    assert result.consistent, (strategy, result.violations)
    assert result.invariants_ok
    assert result.completed > 0
    assert len(result.records) == result.spec.requests


@pytest.mark.parametrize("strategy", ("augmented", "synthesis"))
def test_new_strategies_are_deterministic(strategy):
    first = run_service(_smoke_spec(strategy))
    second = run_service(_smoke_spec(strategy))
    assert first.signature() == second.signature()


def test_augmented_reports_strategy_stats():
    result = run_service(_smoke_spec("augmented"))
    # The smoke workload never overcommits, so every update passes
    # through undetoured — but the counters must still be reported.
    assert result.strategy_stats
    assert sum(result.strategy_stats.values()) > 0


def test_strategy_rides_results_doc():
    result = run_service(_smoke_spec("augmented"))
    doc = result.to_results()
    assert doc["strategy_stats"] == result.strategy_stats


def test_baseline_strategy_honours_trace_max_events():
    spec = _smoke_spec("ezsegway")
    doc = {**spec.to_dict(), "params": {**spec.params, "trace_max_events": 50}}
    bounded = run_service(load_serve_spec(doc)).to_results()
    assert bounded["trace_dropped_events"] > 0
    unbounded = run_service(spec).to_results()
    assert unbounded["trace_dropped_events"] == 0
    assert bounded["records"] == unbounded["records"]
