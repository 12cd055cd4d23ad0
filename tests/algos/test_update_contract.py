"""Every native controller speaks one update contract
(:class:`repro.core.contract.UpdateController`): one Flow DB record
type, one completion event per update, and completion queries that
read the record."""

import pytest

from repro.algos.registry import build_system
from repro.core.contract import FlowRecord, UpdateController
from repro.params import SimParams
from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH, fig1_topology
from repro.traffic.flows import Flow


@pytest.mark.parametrize("system", ["p4update", "ezsegway", "central"])
def test_native_controller_conforms(system):
    dep = build_system(system, fig1_topology(), params=SimParams(seed=0))
    controller = dep.controller
    assert isinstance(controller, UpdateController)
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    dep.install_flow(flow)
    events = []
    controller.update_listeners.append(lambda *event: events.append(event))

    prepared = controller.update_flow(
        flow.flow_id, list(FIG1_NEW_PATH), dep.update_type
    )
    assert not controller.update_complete(flow.flow_id)
    assert not controller.all_updates_complete()
    assert controller.update_duration(flow.flow_id) is None
    dep.run()

    assert all(isinstance(r, FlowRecord) for r in controller.flow_db.values())
    assert events == [("completed", flow.flow_id, prepared.version)]
    record = controller.flow_db[flow.flow_id]
    assert record.current_path == list(FIG1_NEW_PATH)
    assert record.pending_version is None and record.pending_path is None
    assert controller.update_complete(flow.flow_id)
    assert controller.all_updates_complete()
    duration = controller.update_duration(flow.flow_id)
    assert duration == record.update_done_at - record.update_sent_at
    assert duration > 0
