"""A version check reads one register; the whole row is read only
where Alg. 2 and the UNM builders need it, and a read never allocates.

What the agent does over the scenarios of ``tests/reference_scenarios.py``
is held to ``tests/pinned_scenarios.json`` by
``tests/sim/test_network_single_describe.py``, recorded while these
single-register checks agreed with the full-row bodies they replaced;
what one pipeline pass does is checked against the spec of Alg. 1/2 by
``tests/core/test_pipeline_spec.py``.
"""

import pytest

from repro.core.dataplane import P4UpdateProgram
from repro.core.messages import make_probe
from repro.p4.pipeline import Pipeline
from repro.serve.service import run_service
from repro.serve.spec import load_serve_spec
from tests.reference_scenarios import SCENARIOS, stock_outcome


def test_the_scenarios_reach_the_branches_they_name():
    """A pin over runs that never leave the happy path proves little."""
    kinds = lambda name: [e.kind for e in stock_outcome(name)["trace"]]
    reasons = lambda name: {
        e.detail.get("reason") for e in stock_outcome(name)["trace"]
        if e.kind == "msg_drop"
    }
    dl = stock_outcome("serve_forced_dl")["switches"]
    assert any(2 in s["registers"].get("last_type", {}).values() for s in dl.values())
    sl = stock_outcome("serve_forced_sl")["switches"]
    assert not any(2 in s["registers"].get("last_type", {}).values() for s in sl.values())
    chaos = stock_outcome("serve_chaos_closed")
    assert chaos["buffered"] and chaos["buffered"][0] > 0      # parked, then re-enqueued
    assert {"link_down", "controller_outage", "dest_down"} <= reasons("serve_chaos_closed")
    assert "update_aborted" in kinds("serve_chaos_closed")
    for name in ("faults_distance_skew", "faults_version_rewind"):
        faults = stock_outcome(name)["faults"]
        assert all(min(plane.values()) > 0 for plane in faults.values()), faults
        assert "verify_fail" in kinds(name)
    cut = stock_outcome("link_cut_in_flight")["trace"]
    down = next(e.time for e in cut if e.kind == "link_down")
    assert any(                                                # lost on the wire
        e.kind == "msg_drop" and e.time == down
        and e.detail.get("reason") == "link_down" for e in cut
    )
    assert "rule_staged" in kinds("two_phase_commit")
    assert stock_outcome("destination_tree")["complete"]
    assert any(
        s["alarms"] for name in SCENARIOS if name != "compact_piggyback"
        for s in stock_outcome(name)["switches"].values()
    )


def test_a_request_reads_the_whole_row_only_where_alg2_needs_it(monkeypatch):
    """13.9 ``state_of`` calls per request when every version check built
    a ``NodeFlowState``; Alg. 2 and the UNM builders are what is left."""
    calls = []
    plain = P4UpdateProgram.state_of
    monkeypatch.setattr(
        P4UpdateProgram, "state_of",
        lambda self, flow_id: calls.append(flow_id) or plain(self, flow_id),
    )
    spec = load_serve_spec({
        "name": "rows", "topology": "b4", "seed": 0, "flows": 8, "requests": 50,
        "arrival_rate_per_s": 3.0, "queue_depth": 16, "shed_policy": "park",
        "conflict_policy": "serialize", "horizon_ms": 1.0e9,
    })
    result = run_service(spec)
    assert result.completed == 50
    assert 0 < len(calls) / 50 <= 6


def test_reads_of_unknown_flows_allocate_nothing():
    """Probes for flows a switch never carried are answered with an FRM
    punt each and leave the flow index empty: 17 of them used to fill a
    16-flow switch for good."""
    program = P4UpdateProgram(max_flows=16)
    pipeline = Pipeline(program)
    for flow_id in range(1, 5001):
        result = pipeline.process(make_probe(flow_id, 0))
        assert result.egress_port is None and [p.reason for p in result.punts] == ["frm"]
        assert program.pending_version(flow_id) == 0
        assert program.current_port(flow_id) == 0xFFFF
        assert program.flow_size_of(flow_id) == 0.0
        assert not program.state_of(flow_id).has_flow()
    assert len(program.flow_index) == 0
    assert program.stats["probes_blackholed"] == 5000


def test_a_full_switch_still_answers_for_unknown_flows():
    program = P4UpdateProgram(max_flows=2)
    for flow_id in (10, 20):
        program.set_current_port(flow_id, 3)
    assert len(program.flow_index) == 2
    result = Pipeline(program).process(make_probe(30, 0))
    assert [p.reason for p in result.punts] == ["frm"]
    assert program.current_port(10) == 3 and not program.flow_index.known(30)
    with pytest.raises(RuntimeError, match="register arrays full"):
        program.set_current_port(30, 1)                        # writes still allocate
