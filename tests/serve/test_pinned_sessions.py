"""Serve and ops runs, byte-pinned at the commit before both were put
behind one ``ServiceSession``.

Every cell of ``pinned_sessions.json`` is the sha256 of one run's
canonical ``to_results()`` (plus a few readable fields for a failing
diff), reached through public entry points only — ``run_service``,
``run_session`` and ``build_session``: {open, closed} x {no events,
link flap} x {serve; ops with an empty timeline; ops with a drain and
``checkpoint_every_ms``}, one ``causal`` run and one non-default
strategy.

``open_arrivals`` holds the first 50 ``(gap_ms, index)`` pairs of the
``open_loop_arrivals`` generator that commit still had, recorded once
(``tests/serve/test_workload.py`` holds ``draw_open_arrival`` to them);
regenerating keeps the recorded pairs.  The ``trace_signature`` and
``sha256`` of every cell were re-recorded three times, when signature
format v2 replaced v1, when every ``msg_*`` record gained its ``type``
key and when the orchestrator, the controller and reliable control
began recording what causal attribution reads (``request_admitted``,
``request_wait``, ``request_requeued``, ``request_pushed``,
``retransmit``, ``retrigger``; ``docs/ARCHITECTURE.md``); no other
field moved.

Regenerate only for a deliberate behaviour change::

    PYTHONPATH=src python tests/serve/test_pinned_sessions.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.ops.session import build_session, run_session
from repro.ops.spec import load_session_spec
from repro.serve.service import run_service
from repro.serve.spec import load_serve_spec

PINNED_PATH = pathlib.Path(__file__).with_name("pinned_sessions.json")

MODES = {
    "open": {"mode": "open", "arrival_rate_per_s": 20.0},
    "closed": {"mode": "closed", "clients": 3, "think_time_ms": 120.0},
}
#: The link the flap takes carries seed-1 flows on b4, so recovery
#: (abort, reroute, checker disarm) really runs.
EVENTS = {
    "calm": [],
    "flap": [
        {"time_ms": 2500.0, "kind": "link_down",
         "node_a": "lenoir-nc", "node_b": "dublin-ie"},
        {"time_ms": 6000.0, "kind": "link_up",
         "node_a": "lenoir-nc", "node_b": "dublin-ie"},
    ],
}
RUNNERS = ("serve", "ops-empty", "ops-drain-ckpt")
#: Serve-spec fields each ``run_service`` runner adds.
SERVE_RUNNERS = {
    "serve": {},
    "serve-causal": {"causal": True},
    "serve-ezsegway": {"strategy": "ezsegway"},
}
DRAIN_TIMELINE = [
    {"at_ms": 2000.0, "op": "drain_switch", "switch": "council-ia"},
    {"at_ms": 9000.0, "op": "undrain_switch", "switch": "council-ia"},
    {"at_ms": 10000.0, "op": "migrate_tenant", "tenant": 1},
]

CELLS = [
    f"{mode}/{events}/{runner}"
    for mode in MODES for events in EVENTS for runner in RUNNERS
] + ["open/calm/serve-causal", "open/flap/serve-ezsegway"]


def _serve_doc(mode: str, events: str, **extra) -> dict:
    return {
        "name": "pinned-bg", "topology": "b4", "seed": 1, "flows": 10,
        "requests": 40, "horizon_ms": 15000.0,
        "params": {"controller_update_timeout_ms": 500.0},
        "events": EVENTS[events], **MODES[mode], **extra,
    }


def _run(cell: str):
    mode, events, runner = cell.split("/")
    if runner in SERVE_RUNNERS:
        return run_service(
            load_serve_spec(_serve_doc(mode, events, **SERVE_RUNNERS[runner]))
        )
    session_doc = {"name": "pinned", "serve": _serve_doc(mode, events), "tenants": 4}
    if runner == "ops-empty":
        return run_session(load_session_spec(session_doc))
    session_doc.update(timeline=DRAIN_TIMELINE, checkpoint_every_ms=3000.0)
    session = build_session(load_session_spec(session_doc))
    session.run()
    return session.finalize()


def compute_cell(cell: str) -> dict:
    results = _run(cell).to_results()
    canonical = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return {
        "sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "requests": results["requests"],
        "outcomes": results["outcomes"],
        "events_processed": results["events_processed"],
        "signature": results["signature"],
        "trace_signature": results["trace_signature"],
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())


def test_pinned_file_covers_every_cell(pinned):
    assert set(pinned["cells"]) == set(CELLS)
    assert len(pinned["open_arrivals"]) == 50


@pytest.mark.parametrize("cell", CELLS)
def test_run_is_byte_identical(cell, pinned):
    assert compute_cell(cell) == pinned["cells"][cell]


def test_cells_exercise_what_they_name(pinned):
    cells = pinned["cells"]
    # A flap that moved nothing would pin the calm run twice.
    for mode in MODES:
        for runner in RUNNERS:
            assert (
                cells[f"{mode}/flap/{runner}"]["trace_signature"]
                != cells[f"{mode}/calm/{runner}"]["trace_signature"]
            )
    for cell in CELLS:
        assert cells[cell]["requests"] == 40


if __name__ == "__main__":
    doc = {"cells": {cell: compute_cell(cell) for cell in CELLS}}
    doc["open_arrivals"] = json.loads(PINNED_PATH.read_text())["open_arrivals"]
    PINNED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINNED_PATH}")
