"""SessionSpec validation: unknown fields, topology checks, limits."""

import json

import pytest

from repro.chaos.campaign import SpecTopologyError
from repro.ops.spec import (
    OP_KINDS,
    SessionSpecError,
    load_session_spec,
    load_session_spec_file,
)

SERVE = {
    "name": "bg",
    "topology": "fig1",
    "seed": 3,
    "flows": 3,
    "requests": 6,
    "mode": "open",
    "arrival_rate_per_s": 50.0,
    "horizon_ms": 10000.0,
}


def _spec_doc(**overrides):
    doc = {
        "name": "s",
        "serve": dict(SERVE),
        "timeline": [{"at_ms": 100.0, "op": "rebalance", "max_moves": 2}],
    }
    doc.update(overrides)
    return doc


def test_minimal_spec_loads():
    spec = load_session_spec(_spec_doc())
    assert spec.name == "s"
    assert spec.tenants == 4
    assert spec.checkpoint_every_ms == 0.0
    assert [e["op"] for e in spec.timeline] == ["rebalance"]


def test_op_kinds_catalogue():
    assert OP_KINDS == (
        "migrate_tenant", "drain_switch", "undrain_switch", "rebalance"
    )


def test_unknown_top_level_field_rejected():
    with pytest.raises(SessionSpecError, match="unknown session spec field"):
        load_session_spec(_spec_doc(surprise=1))


def test_unknown_timeline_field_rejected():
    doc = _spec_doc(
        timeline=[{"at_ms": 1.0, "op": "rebalance", "bogus": True}]
    )
    with pytest.raises(SessionSpecError, match="unknown field"):
        load_session_spec(doc)


def test_unknown_op_rejected():
    doc = _spec_doc(timeline=[{"at_ms": 1.0, "op": "explode"}])
    with pytest.raises(SessionSpecError, match="unknown op"):
        load_session_spec(doc)


def test_causal_serve_rejected():
    doc = _spec_doc(serve=dict(SERVE, causal=True))
    with pytest.raises(SessionSpecError, match="causal"):
        load_session_spec(doc)


def test_unknown_switch_is_structured_topology_error():
    doc = _spec_doc(
        timeline=[{"at_ms": 1.0, "op": "drain_switch", "switch": "nowhere"}]
    )
    with pytest.raises(SpecTopologyError) as excinfo:
        load_session_spec(doc)
    # Structured: the error names the topology and each bad reference.
    assert excinfo.value.topology == "fig1"
    assert any("nowhere" in p for p in excinfo.value.problems)


def test_unknown_avoid_node_is_structured_topology_error():
    doc = _spec_doc(
        timeline=[
            {"at_ms": 1.0, "op": "migrate_tenant", "tenant": 0,
             "avoid": ["atlantis"]}
        ]
    )
    with pytest.raises(SpecTopologyError) as excinfo:
        load_session_spec(doc)
    assert any("atlantis" in p for p in excinfo.value.problems)


def test_embedded_serve_events_validated_against_topology():
    doc = _spec_doc(
        serve=dict(
            SERVE,
            events=[{"time_ms": 10.0, "kind": "link_down",
                     "node_a": "ghost", "node_b": "town"}],
        )
    )
    # The embedded serve spec's own loader checks its events.
    with pytest.raises(SessionSpecError, match="'ghost' is not a node"):
        load_session_spec(doc)


def test_embedded_link_event_between_non_adjacent_nodes_rejected():
    # Both nodes exist on b4, but no link joins them: this used to load
    # and then raise KeyError inside the engine at time_ms.
    doc = _spec_doc(
        serve=dict(
            SERVE,
            topology="b4",
            events=[{"time_ms": 10.0, "kind": "link_down",
                     "node_a": "atlanta-ga", "node_b": "dalles-or"}],
        )
    )
    with pytest.raises(SessionSpecError, match="no link between"):
        load_session_spec(doc)


def test_tenant_out_of_range_rejected():
    doc = _spec_doc(
        tenants=2,
        timeline=[{"at_ms": 1.0, "op": "migrate_tenant", "tenant": 2}],
    )
    with pytest.raises(SessionSpecError, match="tenant"):
        load_session_spec(doc)


def test_negative_checkpoint_cadence_rejected():
    with pytest.raises(SessionSpecError, match="checkpoint_every_ms"):
        load_session_spec(_spec_doc(checkpoint_every_ms=-1.0))


def test_spec_hash_is_canonical_and_stable():
    a = load_session_spec(_spec_doc())
    b = load_session_spec(_spec_doc())
    assert a.spec_hash() == b.spec_hash()
    assert a.spec_hash() != load_session_spec(_spec_doc(tenants=5)).spec_hash()


def test_to_dict_round_trips():
    spec = load_session_spec(_spec_doc(checkpoint_every_ms=500.0))
    again = load_session_spec(json.loads(json.dumps(spec.to_dict())))
    assert again.spec_hash() == spec.spec_hash()


def test_example_spec_loads(tmp_path):
    spec = load_session_spec_file("examples/ops_drain.json")
    assert spec.name == "drain-smoke"
    assert spec.checkpoint_every_ms > 0
    assert {e["op"] for e in spec.timeline} <= set(OP_KINDS)
