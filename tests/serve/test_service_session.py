"""``ServiceSession``: the one service run behind ``run_service`` and
ops sessions."""

import gc
import tracemalloc

from repro.serve.service import ServiceSession
from repro.serve.spec import load_serve_spec


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
    else: it used to keep every completed one in memory for as long as
    the service ran."""
    spec = load_serve_spec({
        "name": "forgets", "topology": "b4", "seed": 1, "flows": 8,
        "requests": 200, "arrival_rate_per_s": 3.0, "queue_depth": 16,
        "shed_policy": "park", "conflict_policy": "serialize",
        "horizon_ms": 1.0e9,
    })
    gc.collect()
    tracemalloc.start()
    try:
        session = ServiceSession(spec)
        session.wire()
        controller = session.deployment.controller
        for issued in (50, 120, 200):
            while session._issued < issued or controller.all_updates_complete():
                assert session.engine.step()            # stop mid-flight
            pending = {
                (flow_id, record.pending_version)
                for flow_id, record in controller.flow_db.items()
                if record.pending_version is not None
            }
            assert set(controller._prepared) <= pending
            assert set(controller._retriggers) <= pending
        # What the table adds to the session's state (measured as the
        # traced bytes freed when it is dropped) stays a sliver of it.
        gc.collect()
        whole, _peak = tracemalloc.get_traced_memory()
        controller._prepared = {}
        gc.collect()
        without, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (whole - without) / whole < 0.03
    # That session lost its table: run a fresh one to the end.
    session = ServiceSession(spec)
    session.wire()
    session.run()
    result = session.close()
    controller = session.deployment.controller
    assert result.outcome_counts == {"completed": 200}
    assert controller.all_updates_complete()
    assert controller._prepared == {} and controller._retriggers == {}
