"""``UIM`` and ``RoleMessage`` — and everything built per packet or per
verification: ``Decision``, ``UNMFields``, ``PipelineResult``,
``CloneRequest``, ``CpuPunt`` — are tuple-backed immutable values: what
a dataclass promised (no field assignment, keyword construction,
defaults, ``==`` / ``hash``) still holds, and the places that dispatch
on the class keep working."""

import pytest

from repro.baselines.ezsegway import EzSegwaySwitch, RoleMessage
from repro.core.messages import (
    CLEANUP_HEADER,
    PROBE_HEADER,
    UIM,
    UNM_HEADER,
    UNMFields,
    UpdateType,
)
from repro.core.verification import Decision, NodeFlowState, Verdict
from repro.harness.build import P4UPDATE, build_p4update_network
from repro.p4.packet import Packet
from repro.p4.pipeline import CloneRequest, CpuPunt, PipelineResult
from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH, fig1_topology
from repro.traffic.flows import Flow

UIM_FIELDS = dict(
    target="s1", flow_id=1, version=2, new_distance=3, egress_port=4,
    flow_size=1.5, update_type=UpdateType.DUAL, child_port=None,
)
ROLE_FIELDS = dict(
    target="s1", flow_id=1, update_id=2, new_next_hop="s2", segment_index=0,
    upstream_in_segment=None, is_segment_egress=True, is_segment_ingress=False,
    is_flow_ingress=False, in_loop=False, depends_on_flip=False,
)
UNM_FIELDS = dict(
    flow_id=7, layer=2, update_type=UpdateType.DUAL, new_version=2,
    new_distance=4, old_version=1, old_distance=3,
)
DECISION_FIELDS = dict(verdict=Verdict.UPDATE)
PACKET = Packet()
RESULT_FIELDS = dict(packet=PACKET, egress_port=2, resubmit=False)
VALUES = [
    (UIM, UIM_FIELDS, "version"),
    (RoleMessage, ROLE_FIELDS, "update_id"),
    (UNMFields, UNM_FIELDS, "new_version"),
    (Decision, DECISION_FIELDS, "verdict"),
    (PipelineResult, RESULT_FIELDS, "egress_port"),
    (CloneRequest, dict(session=2, packet=PACKET), "session"),
    (CpuPunt, dict(reason=2, packet=PACKET), "reason"),
]


@pytest.mark.parametrize("cls, fields, _", VALUES)
def test_keyword_and_positional_construction_agree(cls, fields, _):
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    assert list(fields) == list(cls._fields[: len(fields)])     # order is API
    assert {by_keyword: "found"}[by_position] == "found"


@pytest.mark.parametrize("cls, fields, field", VALUES)
def test_fields_cannot_be_assigned(cls, fields, field):
    message = cls(**fields)
    with pytest.raises(AttributeError):
        setattr(message, field, 9)
    with pytest.raises(AttributeError):
        message.no_such_field = 1           # no instance __dict__ either


@pytest.mark.parametrize("cls, fields, field", VALUES)
def test_replace_returns_a_new_value(cls, fields, field):
    message = cls(**fields)
    bumped = message._replace(**{field: 9})
    assert getattr(bumped, field) == 9 and getattr(message, field) == fields[field]
    assert type(bumped) is cls
    assert bumped != message
    assert bumped._replace(**{field: fields[field]}) == message


def test_defaults():
    uim = UIM(**UIM_FIELDS)
    assert uim[len(UIM_FIELDS):] == ((), False, False, False, False, None, ())
    assert (uim.child_ports, uim.stage_tag, uim.piggyback) == ((), None, ())
    role = RoleMessage(**ROLE_FIELDS)
    assert (role.flow_size, role.move_rank) == (0.0, 0)
    assert "UIM(to=s1 flow=1 v=2 dn=3 type=DUAL)" == uim.describe()
    assert "Role(to=s1 flow=1 seg=0 not_in_loop)" == role.describe()
    unm = UNMFields(**UNM_FIELDS)
    assert unm.counter == 0 and unm[-1] == 0
    assert unm.describe() == "UNM(flow=7 L2 vn=2 dn=4 vo=1 do=3 c=0)"
    decision = Decision(Verdict.WAIT)
    assert decision[1:] == (None, "", "")
    assert (decision.new_state, decision.reason, decision.branch) == (None, "", "")
    result = PipelineResult(**RESULT_FIELDS)
    assert (result.clones, result.punts) == ((), ())           # shared, so immutable


def test_decision_properties():
    informs = {Verdict.DROP_OUTDATED, Verdict.DROP_DISTANCE, Verdict.DROP_CONSECUTIVE_DUAL}
    succeeds = {Verdict.UPDATE, Verdict.PASS_ON}
    for verdict in Verdict:
        decision = Decision(verdict, NodeFlowState(new_version=3), "why", "sl")
        assert decision.inform_controller is (verdict in informs)
        assert decision.success is (verdict in succeeds)
        assert decision == (verdict, NodeFlowState(new_version=3), "why", "sl")


def test_unm_fields_round_trip_through_the_header():
    unm = UNMFields(**UNM_FIELDS, counter=9)
    assert UNMFields.from_packet(unm.to_packet()) == unm
    assert type(UNMFields.from_packet(unm.to_packet()).update_type) is UpdateType
    # Header fields are 16 bits wide: what does not fit is cut off on
    # the wire, not in the tuple.
    wide = unm._replace(new_distance=(1 << 16) + 5, counter=1 << 16, layer=5)
    assert wide.new_distance == 65541
    back = UNMFields.from_packet(wide.to_packet())
    assert (back.new_distance, back.counter, back.layer) == (5, 0, 1)
    assert back == wide._replace(new_distance=5, counter=0, layer=1)


def test_header_types_know_their_masks_and_zero_row():
    for header_type in (UNM_HEADER, PROBE_HEADER, CLEANUP_HEADER):
        assert header_type.masks == {
            name: (1 << spec.bits) - 1 for name, spec in header_type.fields.items()
        }
        assert list(header_type.masks) == list(header_type.fields)      # wire order
        header = header_type.instantiate()
        assert header._values == dict.fromkeys(header_type.fields, 0)
        assert header._values is not header_type.zero_row
        assert not header.is_valid()
    header = UNM_HEADER.instantiate()
    header["layer"] = 7
    assert header["layer"] == 3 and UNM_HEADER.zero_row["layer"] == 0
    with pytest.raises(KeyError, match="no field 'ttl' in header 'unm'"):
        header["ttl"] = 1


def test_switches_dispatch_on_the_class_not_the_shape():
    """``handle_control`` takes a ``UIM`` / ``RoleMessage``; a bare tuple
    with the same contents is not one."""
    deployment = build_p4update_network(fig1_topology())
    deployment.install_flow(Flow(1, "v0", "v7", 1.0, old_path=list(FIG1_OLD_PATH)))
    prepared = deployment.controller.prepare_update(1, list(FIG1_NEW_PATH))
    uim = prepared.uims[-1]
    switch = deployment.switches[uim.target]
    seen = []
    switch._process_uim = seen.append
    switch.handle_control(tuple(uim))
    assert seen == []
    switch.handle_control(uim)
    assert seen == [uim]
    # harness/build.py: the Fig. 2 / Fig. 4 probes key on "first update".
    assert P4UPDATE.is_first_update(uim) and uim.version == 2
    assert not P4UPDATE.is_first_update(tuple(uim))
    assert not P4UPDATE.is_first_update(uim._replace(version=3))

    role = RoleMessage(**ROLE_FIELDS)
    ez_switch = EzSegwaySwitch("s1")
    ez_switch._replay_pending = lambda: None
    ez_switch.handle_control(tuple(role))
    assert ez_switch.roles == {}
    ez_switch.handle_control(role)
    assert ez_switch.roles == {(1, 2, 0): role}

