"""``UIM`` and ``RoleMessage`` are tuple-backed immutable values: what a
frozen dataclass promised (no field assignment, keyword construction,
defaults, ``==`` / ``hash``) still holds, and the places that dispatch
on the class or carry one through a pickle keep working."""

import pickle

import pytest

from repro.baselines.ezsegway import EzSegwaySwitch, RoleMessage
from repro.core.messages import UIM, UpdateType
from repro.harness.build import P4UPDATE, build_p4update_network
from repro.serve.service import ServiceSession
from repro.serve.spec import load_serve_spec
from repro.sim.reset import reset_global_state
from repro.topo import fig1_topology
from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH
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
VALUES = [(UIM, UIM_FIELDS, "version"), (RoleMessage, ROLE_FIELDS, "update_id")]


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
    assert getattr(bumped, field) == 9 and getattr(message, field) == 2
    assert type(bumped) is cls
    assert bumped != message
    assert bumped._replace(**{field: 2}) == message


def test_defaults():
    uim = UIM(**UIM_FIELDS)
    assert uim[len(UIM_FIELDS):] == ((), False, False, False, False, None, ())
    assert (uim.child_ports, uim.stage_tag, uim.piggyback) == ((), None, ())
    role = RoleMessage(**ROLE_FIELDS)
    assert (role.flow_size, role.move_rank) == (0.0, 0)
    assert "UIM(to=s1 flow=1 v=2 dn=3 type=DUAL)" == uim.describe()
    assert "Role(to=s1 flow=1 seg=0 not_in_loop)" == role.describe()


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
    switch.handle_control(tuple(uim), "controller")
    assert seen == []
    switch.handle_control(uim, "controller")
    assert seen == [uim]
    # harness/build.py: the Fig. 2 / Fig. 4 probes key on "first update".
    assert P4UPDATE.is_first_update(uim) and uim.version == 2
    assert not P4UPDATE.is_first_update(tuple(uim))
    assert not P4UPDATE.is_first_update(uim._replace(version=3))

    role = RoleMessage(**ROLE_FIELDS)
    ez_switch = EzSegwaySwitch("s1")
    ez_switch._replay_pending = lambda: None
    ez_switch.handle_control(tuple(role), "controller")
    assert ez_switch.roles == {}
    ez_switch.handle_control(role, "controller")
    assert ez_switch.roles == {(1, 2, 0): role}


def test_uims_survive_a_session_pickle():
    spec = load_serve_spec(
        {"name": "values", "topology": "b4", "seed": 2, "flows": 6,
         "requests": 40, "horizon_ms": 4000.0}
    )
    reset_global_state()
    session = ServiceSession(spec)
    session.wire()
    controller = session.deployment.controller
    engine = session.deployment.network.engine
    while not controller._prepared:                   # stop mid-update
        assert engine.step()
    in_flight = dict(controller._prepared)
    restored = pickle.loads(pickle.dumps(session))
    thawed = restored.deployment.controller._prepared
    assert thawed == in_flight
    for prepared in thawed.values():
        assert all(type(uim) is UIM for uim in prepared.uims)
    session.close()
