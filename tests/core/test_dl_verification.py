"""Unit tests for Alg. 2 (DL verification), pinned to the Fig. 1
walk-through of paper §3.2."""

import pytest

from repro.core.messages import UIM, UNMFields, UpdateType
from repro.core.verification import (
    NodeFlowState,
    Verdict,
    apply_sl_state,
    verify_dl,
)

# Fig. 1 context: old path v0-v4-v2-v7 at version 1; new path
# v0-v1-v2-v3-v4-v5-v6-v7 at version 2 (dual-layer).
NEW_DIST = {"v0": 7, "v1": 6, "v2": 5, "v3": 4, "v4": 3, "v5": 2, "v6": 1, "v7": 0}
OLD_DIST = {"v0": 3, "v4": 2, "v2": 1, "v7": 0}


def dl_uim(node, version=2):
    return UIM(
        target=node,
        flow_id=1,
        version=version,
        new_distance=NEW_DIST[node],
        egress_port=1,
        flow_size=1.0,
        update_type=UpdateType.DUAL,
        child_port=2,
    )


def dl_unm(new_distance, old_distance, old_version=1, counter=0, version=2, layer=1):
    return UNMFields(
        flow_id=1,
        layer=layer,
        update_type=UpdateType.DUAL,
        new_version=version,
        new_distance=new_distance,
        old_version=old_version,
        old_distance=old_distance,
        counter=counter,
    )


def gateway_state(node):
    """Applied version-1 state at a gateway (initial deployment)."""
    return apply_sl_state(1, OLD_DIST[node])


FRESH = NodeFlowState()   # a node not on the old path


def test_inside_segment_node_updates_early_and_inherits():
    """v3 (inside the backward segment) updates from v4's intra-segment
    UNM, inheriting v4's old distance 2 as its segment id."""
    # v4 has not applied yet: its UNM carries pending new state and
    # applied old state (vo=1, do=2).
    unm = dl_unm(new_distance=NEW_DIST["v4"], old_distance=2)
    decision = verify_dl(dl_uim("v3"), unm, FRESH)
    assert decision.verdict is Verdict.UPDATE
    state = decision.new_state
    assert state.new_version == 2 and state.new_distance == 4
    assert state.old_version == 1
    assert state.old_distance == 2, "inherits the sender's segment id"
    assert state.counter == 1
    assert state.update_type is UpdateType.DUAL


def test_fig1_backward_gateway_rejects_early_proposal():
    """§3.2: 'at the beginning v4 asks v2, where v2 will reject (2 > 1)'.

    This is the regression test for the Alg. 2 line 19 typo: with the
    printed guard D_n(v) > D_o(UNM) (5 > 2) v2 would wrongly accept and
    form the loop v2 -> v3 -> v4 -> v2.
    """
    # v3 forwards v4's segment id 2 to gateway v2.
    unm = dl_unm(new_distance=NEW_DIST["v3"], old_distance=2, counter=1)
    decision = verify_dl(dl_uim("v2"), unm, gateway_state("v2"))
    assert decision.verdict is Verdict.REJECT_STAY
    assert not decision.inform_controller


def test_fig1_forward_gateway_accepts():
    """§3.2: 'v4 accepts v7 (0 < 2)'."""
    # First-layer UNM propagated through v5 (inherited do=0).
    unm = dl_unm(new_distance=NEW_DIST["v5"], old_distance=0, counter=2)
    decision = verify_dl(dl_uim("v4"), unm, gateway_state("v4"))
    assert decision.verdict is Verdict.UPDATE
    state = decision.new_state
    assert state.old_distance == 0, "joins segment id 0"
    assert state.counter == 3
    assert state.old_version == 1


def test_fig1_backward_gateway_accepts_after_inheritance():
    """§3.2: 'Next, v2 accepts the proposal of v4 (0 < 1)'."""
    # v3 passes the post-update segment id 0 upstream.
    unm = dl_unm(new_distance=NEW_DIST["v3"], old_distance=0, counter=4)
    decision = verify_dl(dl_uim("v2"), unm, gateway_state("v2"))
    assert decision.verdict is Verdict.UPDATE
    assert decision.new_state.old_distance == 0


def test_fig1_ingress_gateway_accepts_v2s_segment():
    """§3.2: 'v0 accepts v2 (1 < 3)'."""
    # Second-layer UNM through v1 carrying v2's segment id 1.
    unm = dl_unm(new_distance=NEW_DIST["v1"], old_distance=1, counter=1, layer=2)
    decision = verify_dl(dl_uim("v0"), unm, gateway_state("v0"))
    assert decision.verdict is Verdict.UPDATE
    assert decision.new_state.old_distance == 1


def test_already_updated_node_passes_smaller_old_distance():
    """Line 24 branch: v3 (updated, do=2) inherits do=0 from updated v4
    and forwards it upstream."""
    v3_state = NodeFlowState(
        new_version=2, new_distance=4, old_version=1, old_distance=2,
        counter=1, update_type=UpdateType.DUAL,
    )
    unm = dl_unm(new_distance=NEW_DIST["v4"], old_distance=0, counter=3)
    decision = verify_dl(dl_uim("v3"), unm, v3_state)
    assert decision.verdict is Verdict.PASS_ON
    assert decision.new_state.old_distance == 0
    assert decision.new_state.counter == 4
    assert decision.new_state.new_distance == 4, "applied rules unchanged"


def test_pass_on_requires_strictly_better_or_counter_break():
    state = NodeFlowState(
        new_version=2, new_distance=4, old_version=1, old_distance=0,
        counter=1, update_type=UpdateType.DUAL,
    )
    # Same old distance, smaller own counter, second layer: ignore
    # (first-layer UNMs are always relayed — §11 loss recovery).
    unm = dl_unm(new_distance=3, old_distance=0, counter=5, layer=2)
    assert verify_dl(dl_uim("v3"), unm, state).verdict is Verdict.IGNORE
    # Same old distance, larger own counter: pass on (symmetry breaking).
    unm2 = dl_unm(new_distance=3, old_distance=0, counter=0, layer=2)
    assert verify_dl(dl_uim("v3"), unm2, state).verdict is Verdict.PASS_ON
    # First layer with nothing new: relayed regardless.
    unm3 = dl_unm(new_distance=3, old_distance=0, counter=5, layer=1)
    assert verify_dl(dl_uim("v3"), unm3, state).verdict is Verdict.PASS_ON


def test_gateway_distance_mismatch_reported():
    unm = dl_unm(new_distance=9, old_distance=0)
    decision = verify_dl(dl_uim("v2"), unm, gateway_state("v2"))
    assert decision.verdict is Verdict.DROP_DISTANCE
    assert decision.inform_controller


def test_inside_node_distance_mismatch_reported():
    unm = dl_unm(new_distance=9, old_distance=0)
    decision = verify_dl(dl_uim("v3"), unm, FRESH)
    assert decision.verdict is Verdict.DROP_DISTANCE


def test_consecutive_dual_rejected_at_gateway():
    """§11: a dual-layer update needs a single-layer one in between."""
    state = NodeFlowState(
        new_version=1, new_distance=1, old_version=0, old_distance=3,
        counter=2, update_type=UpdateType.DUAL,
    )
    unm = dl_unm(new_distance=NEW_DIST["v2"] - 1, old_distance=0, old_version=1)
    decision = verify_dl(dl_uim("v2"), unm, state)
    assert decision.verdict is Verdict.DROP_CONSECUTIVE_DUAL
    assert decision.inform_controller


def test_unm_for_future_version_waits():
    unm = dl_unm(new_distance=4, old_distance=0, version=5)
    decision = verify_dl(dl_uim("v3", version=2), unm, FRESH)
    assert decision.verdict is Verdict.WAIT


def test_outdated_unm_dropped():
    unm = dl_unm(new_distance=4, old_distance=0, version=1, old_version=0)
    decision = verify_dl(dl_uim("v3", version=2), unm, FRESH)
    assert decision.verdict is Verdict.DROP_OUTDATED


def test_non_dual_uim_falls_back_to_sl():
    uim = UIM(
        target="v3", flow_id=1, version=2, new_distance=4, egress_port=1,
        flow_size=1.0, update_type=UpdateType.SINGLE, child_port=2,
    )
    unm = UNMFields(
        flow_id=1, layer=1, update_type=UpdateType.SINGLE,
        new_version=2, new_distance=3, old_version=1, old_distance=0,
    )
    decision = verify_dl(uim, unm, FRESH)
    assert decision.verdict is Verdict.UPDATE
    # SL semantics: old_* := new_* on apply.
    assert decision.new_state.old_version == 2


def test_dual_unm_without_uim_waits():
    unm = dl_unm(new_distance=4, old_distance=0)
    assert verify_dl(None, unm, FRESH).verdict is Verdict.WAIT


# -- NodeFlowState is an immutable value --------------------------------------


def test_node_flow_state_is_an_immutable_value():
    by_keyword = NodeFlowState(
        new_version=2, new_distance=4, old_version=1, old_distance=2,
        counter=1, update_type=UpdateType.DUAL,
    )
    positional = NodeFlowState(2, 4, 1, 2, 1, UpdateType.DUAL)
    assert by_keyword == positional
    assert hash(by_keyword) == hash(positional)
    assert len({by_keyword, positional, FRESH}) == 2
    assert FRESH == NodeFlowState(0, 0, 0, 0, 0, UpdateType.NONE)
    assert not FRESH.has_flow() and positional.has_flow()
    for field in NodeFlowState._fields:
        with pytest.raises(AttributeError):
            setattr(positional, field, 9)
    # The pass-on branches derive the next state from the current one.
    bumped = positional._replace(old_distance=0, counter=4)
    assert bumped == NodeFlowState(2, 4, 1, 0, 4, UpdateType.DUAL)
    assert positional.counter == 1


def test_pass_on_state_keeps_every_other_field():
    state = NodeFlowState(2, 4, 1, 2, 1, UpdateType.DUAL)
    unm = dl_unm(new_distance=NEW_DIST["v4"], old_distance=0, counter=3)
    decision = verify_dl(dl_uim("v3"), unm, state)
    assert decision.new_state == NodeFlowState(2, 4, 1, 0, 4, UpdateType.DUAL)
    relay = dl_unm(new_distance=3, old_distance=2, counter=5, layer=1)
    assert verify_dl(dl_uim("v3"), relay, state).new_state == state._replace(counter=6)
