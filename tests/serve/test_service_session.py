"""``ServiceSession``: the one service run behind ``run_service`` and
ops sessions — it pickles mid-run and a restored copy finishes exactly
as the original does."""

import json
import pickle

import pytest

from repro.serve.service import ServiceSession, run_service
from repro.serve.spec import load_serve_spec
from tests.serve.test_pinned_sessions import EVENTS, MODES


def _spec(mode):
    return load_serve_spec({
        "name": "pickled", "topology": "b4", "seed": 1, "flows": 10,
        "requests": 150, "horizon_ms": 12000.0, "events": EVENTS["flap"],
        "params": {"controller_update_timeout_ms": 500.0}, **MODES[mode],
    })


def _canonical(result):
    return json.dumps(result.to_results(), sort_keys=True)


@pytest.mark.parametrize("mode", MODES)
def test_pickled_mid_run_session_finishes_identically(mode):
    spec = _spec(mode)
    uninterrupted = _canonical(run_service(spec))

    session = ServiceSession(spec)
    session.wire()
    session.deployment.run(until=spec.horizon_ms / 2)
    issued_at_half = session._issued
    assert 0 < issued_at_half < spec.requests    # really mid-workload
    # Packet ids are traced; the network's counter rides in the graph.
    blob = pickle.dumps(session)

    session.run()
    assert _canonical(session.close()) == uninterrupted

    restored = pickle.loads(blob)
    assert restored._issued == issued_at_half
    restored.run()          # no wire(): the restored queue holds the arrivals
    assert _canonical(restored.close()) == uninterrupted


def test_strategy_override_deploys_that_strategy():
    spec = load_serve_spec(
        {"name": "s", "topology": "b4", "flows": 4, "requests": 5,
         "strategy": "ezsegway"}
    )
    own = type(ServiceSession(spec).deployment.controller)
    overridden = type(ServiceSession(spec, strategy="p4update").deployment.controller)
    assert own is not overridden


def test_controller_forgets_completed_updates():
    """``_prepared`` holds the pending update of each flow and nothing
    else: it used to keep every completed one, in memory and in every
    checkpoint, for as long as the service ran."""
    spec = load_serve_spec({
        "name": "forgets", "topology": "b4", "seed": 1, "flows": 8,
        "requests": 200, "arrival_rate_per_s": 3.0, "queue_depth": 16,
        "shed_policy": "park", "conflict_policy": "serialize",
        "horizon_ms": 1.0e9,
    })
    session = ServiceSession(spec)
    session.wire()
    controller = session.deployment.controller
    for issued in (50, 120, 200):
        while session._issued < issued or controller.all_updates_complete():
            assert session.engine.step()                # stop mid-flight
        pending = {
            (flow_id, record.pending_version)
            for flow_id, record in controller.flow_db.items()
            if record.pending_version is not None
        }
        assert set(controller._prepared) <= pending
        assert set(controller._retriggers) <= pending
    # What the table adds to a checkpoint stays a sliver of it.
    whole = len(pickle.dumps(session))
    table, controller._prepared = controller._prepared, {}
    without = len(pickle.dumps(session))
    controller._prepared = table
    assert (whole - without) / whole < 0.03
    session.run()
    result = session.close()
    assert result.outcome_counts == {"completed": 200}
    assert controller.all_updates_complete()
    assert controller._prepared == {} and controller._retriggers == {}
