"""The admission-time static interference gate.

Two contracts from the ISSUE:

* on a conflict-free workload ``static_interference="serialize"`` is
  invisible — trace and result signatures byte-identical to the gate
  being off (the gate only *reads* orchestrator state);
* on the committed conflicting example, ``off`` reproduces >= 1
  runtime consistency violation that ``serialize`` and ``reject``
  prevent, with the gate decisions recorded in the results.
"""

import json
import os

import pytest

from repro.serve.service import run_service
from repro.serve.spec import ServeSpec, load_serve_spec

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")

#: A workload the static analyzer finds clean: the gate must not
#: perturb it in any observable way.
CONFLICT_FREE = dict(
    name="gate-free",
    topology="b4",
    seed=3,
    flows=8,
    requests=24,
    arrival_rate_per_s=400.0,
)


def conflict_spec(**overrides):
    with open(os.path.join(EXAMPLES, "serve_conflict.json")) as fh:
        doc = json.load(fh)
    doc.update(overrides)
    return load_serve_spec(doc)


@pytest.fixture(scope="module")
def conflict_off():
    return run_service(conflict_spec())


def test_gate_off_is_the_default():
    assert ServeSpec(**CONFLICT_FREE).static_interference == "off"


def test_unknown_gate_mode_rejected():
    with pytest.raises(Exception):
        ServeSpec(**CONFLICT_FREE, static_interference="maybe")


def test_serialize_gate_invisible_on_conflict_free_workload():
    off = run_service(ServeSpec(**CONFLICT_FREE))
    gated = run_service(
        ServeSpec(**CONFLICT_FREE, static_interference="serialize")
    )
    assert off.interference == [] and gated.interference == []
    assert gated.signature() == off.signature()
    assert gated.trace_sig == off.trace_sig
    assert gated.to_results() == off.to_results()


def test_conflict_example_off_reproduces_violations(conflict_off):
    assert len(conflict_off.violations) >= 1
    assert conflict_off.interference == []
    # Clean runs carry no "interference" key at all, so gate-off
    # results stay byte-compatible with pre-gate manifests.
    assert "interference" not in conflict_off.to_results()


def test_conflict_example_off_agrees_with_reference_checker(
    conflict_off, shadow_checker
):
    shadowed = run_service(conflict_spec())
    assert len(shadow_checker) == 1
    assert len(shadowed.violations) == 4
    assert shadowed.signature() == conflict_off.signature()


def test_conflict_example_warn_dispatches_anyway(conflict_off):
    warned = run_service(conflict_spec(static_interference="warn"))
    assert len(warned.violations) == len(conflict_off.violations)
    actions = [e["action"] for e in warned.interference]
    assert actions == ["warn"]
    conflicts = warned.interference[0]["conflicts"]
    assert {c["kind"] for c in conflicts} == {"link-overcommit"}


def test_conflict_example_serialize_prevents_violations():
    gated = run_service(conflict_spec(static_interference="serialize"))
    assert gated.violations == []
    assert [e["action"] for e in gated.interference] == ["hold"]
    # Holding, not rejecting: every request still completes.
    assert gated.outcome_counts.get("completed") == 2
    doc = gated.to_results()
    assert doc["interference"] == gated.interference


def test_conflict_example_reject_sheds_the_conflicting_request():
    gated = run_service(conflict_spec(static_interference="reject"))
    assert gated.violations == []
    assert [e["action"] for e in gated.interference] == ["reject"]
    assert gated.outcome_counts.get("completed") == 1
    assert gated.outcome_counts.get("rejected") == 1


def test_gate_events_are_deterministic():
    first = run_service(conflict_spec(static_interference="serialize"))
    second = run_service(conflict_spec(static_interference="serialize"))
    assert first.interference == second.interference
    assert first.signature() == second.signature()
