"""Unit tests for Alg. 1 (SL verification) — the Fig. 6 scenarios."""


from repro.core.messages import UIM, UNMFields, UpdateType
from repro.core.verification import Verdict, verify_sl


def make_uim(version=1, distance=2, target="v2"):
    return UIM(
        target=target,
        flow_id=1,
        version=version,
        new_distance=distance,
        egress_port=1,
        flow_size=1.0,
        update_type=UpdateType.SINGLE,
        child_port=2,
    )


def make_unm(version=1, distance=1, old_version=0, old_distance=0):
    return UNMFields(
        flow_id=1,
        layer=1,
        update_type=UpdateType.SINGLE,
        new_version=version,
        new_distance=distance,
        old_version=old_version,
        old_distance=old_distance,
    )


def test_fig6a_consistent_update_succeeds():
    """Scenario (i): versions match and parent distance is one smaller."""
    decision = verify_sl(make_uim(version=1, distance=2), make_unm(version=1, distance=1))
    assert decision.verdict is Verdict.UPDATE
    assert decision.success
    assert not decision.inform_controller
    assert decision.new_state.new_version == 1
    assert decision.new_state.new_distance == 2


def test_fig6b_distance_error_detected():
    """Scenario (ii): equal distances could cause a forwarding loop."""
    decision = verify_sl(make_uim(version=1, distance=2), make_unm(version=1, distance=2))
    assert decision.verdict is Verdict.DROP_DISTANCE
    assert decision.inform_controller


def test_fig6b_distance_larger_than_own_detected():
    decision = verify_sl(make_uim(version=1, distance=2), make_unm(version=1, distance=5))
    assert decision.verdict is Verdict.DROP_DISTANCE


def test_fig6c_version_error_detected():
    """Scenario (iii): a parent with a higher version than the node's
    pending UIM means the node must wait for its own UIM."""
    decision = verify_sl(make_uim(version=1, distance=2), make_unm(version=2, distance=1))
    assert decision.verdict is Verdict.WAIT
    assert not decision.inform_controller


def test_outdated_unm_dropped_and_reported():
    """Alg. 1 line 11: V_n(UNM) < V(v) -> drop, inform controller."""
    decision = verify_sl(make_uim(version=3, distance=2), make_unm(version=2, distance=1))
    assert decision.verdict is Verdict.DROP_OUTDATED
    assert decision.inform_controller


def test_unm_before_any_uim_waits():
    """Alg. 1 line 9-10: notification before indication waits in the node."""
    decision = verify_sl(None, make_unm(version=1, distance=1))
    assert decision.verdict is Verdict.WAIT


def test_version_zero_unm_without_uim_is_outdated():
    """A rewound (version-0) UNM at a node with no pending UIM: no
    configuration is older than the one the node holds, so it is dropped
    and the controller alarmed, rather than waiting or crashing."""
    decision = verify_sl(None, make_unm(version=0, distance=1))
    assert decision.verdict is Verdict.DROP_OUTDATED
    assert decision.inform_controller
    assert decision.reason == "UNM version 0 and no pending UIM"


def test_sl_apply_state_sets_old_to_new():
    """App. B: after applying, old_distance/old_version take the new values."""
    decision = verify_sl(make_uim(version=4, distance=3), make_unm(version=4, distance=2))
    state = decision.new_state
    assert state.old_version == 4 and state.old_distance == 3
    assert state.update_type is UpdateType.SINGLE


def test_fast_forward_skips_intermediate_version():
    """§4.2: a node holding UIM v3 accepts the v3 chain even though v2
    never completed, and rejects the late v2 chain."""
    uim_v3 = make_uim(version=3, distance=2)
    late_v2 = verify_sl(uim_v3, make_unm(version=2, distance=1))
    assert late_v2.verdict is Verdict.DROP_OUTDATED
    v3_chain = verify_sl(uim_v3, make_unm(version=3, distance=1))
    assert v3_chain.verdict is Verdict.UPDATE


def test_distance_zero_parent():
    """Node adjacent to the egress: parent distance 0, own distance 1."""
    decision = verify_sl(make_uim(version=1, distance=1), make_unm(version=1, distance=0))
    assert decision.verdict is Verdict.UPDATE
