"""Local verification — Alg. 1 (SL) and Alg. 2 (DL) as pure functions.

These functions are the paper's data-plane verification logic.  They
take the node's applied per-flow state, the highest pending UIM and an
incoming UNM, and return a :class:`Decision`.  The P4 pipeline program
(:mod:`repro.core.dataplane`) executes them against register contents;
unit tests exercise them directly against the paper's Fig. 6
scenarios and the Fig. 1 walk-through.

Deviation from the printed pseudocode: Alg. 2 line 19 is implemented
as ``D_o(v) > D_o(UNM)`` (old-distance comparison), not the printed
``D_n(v)``; see DESIGN.md §2 for the Fig. 1 counter-example that shows
the printed guard admits the loop §3.2 forbids.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional

from repro.core.messages import UIM, UNMFields, UpdateType


class Verdict(enum.Enum):
    """Outcome of verifying one UNM at one node."""

    UPDATE = "update"                  # apply new rules, forward UNM
    PASS_ON = "pass_on"                # inherit old distance, forward UNM
    WAIT = "wait"                      # UIM not here yet -> resubmit
    REJECT_STAY = "reject_stay"        # backward gateway: proposal not yet safe
    DROP_OUTDATED = "drop_outdated"    # stale version -> drop, inform controller
    DROP_DISTANCE = "drop_distance"    # distance inconsistency -> drop, inform
    DROP_CONSECUTIVE_DUAL = "drop_consecutive_dual"  # DL after DL without SL
    IGNORE = "ignore"                  # duplicate / irrelevant, drop silently

INFORM_CONTROLLER = {
    Verdict.DROP_OUTDATED,
    Verdict.DROP_DISTANCE,
    Verdict.DROP_CONSECUTIVE_DUAL,
}


class NodeFlowState(NamedTuple):
    """Applied per-flow state at a node (a view of the UIB registers).

    ``new_version``/``new_distance`` are the *currently applied*
    configuration; ``old_version``/``old_distance`` the previous one
    (or the inherited segment id during DL updates, §3.2).  A node that
    has never carried the flow has the all-zero state.
    """

    new_version: int = 0
    new_distance: int = 0
    old_version: int = 0
    old_distance: int = 0
    counter: int = 0
    update_type: UpdateType = UpdateType.NONE

    def has_flow(self) -> bool:
        return self.new_version > 0


class Decision(NamedTuple):
    """Verification verdict plus the state to apply when accepted.

    ``branch`` records which Alg. 2 case fired (``"sl"``, ``"inside"``,
    ``"gateway"`` or ``"pass_on"``) — the coordination layer uses it to
    decide whether to keep forwarding a second-layer UNM (paper §8:
    "the second-layer UNM is dropped at gateway nodes").
    """

    verdict: Verdict
    new_state: Optional[NodeFlowState] = None
    reason: str = ""
    branch: str = ""

    @property
    def inform_controller(self) -> bool:
        return self.verdict in INFORM_CONTROLLER

    @property
    def success(self) -> bool:
        return self.verdict in (Verdict.UPDATE, Verdict.PASS_ON)


def apply_sl_state(version: int, distance: int) -> NodeFlowState:
    """State after an SL apply (App. B: old_* := new_*)."""
    return NodeFlowState(
        new_version=version,
        new_distance=distance,
        old_version=version,
        old_distance=distance,
        counter=0,
        update_type=UpdateType.SINGLE,
    )


def verify_sl(uim: Optional[UIM], unm: UNMFields) -> Decision:
    """Algorithm 1 — SL verification at a non-egress node.

    ``uim`` is the node's highest pending indication for this flow (or
    None when none has arrived); ``unm`` the incoming notification.
    """
    uim_version = uim.version if uim is not None else 0
    if unm.new_version > uim_version:
        return Decision(verdict=Verdict.WAIT, reason="no UIM for this version yet")
    if unm.new_version < uim_version:
        return Decision(
            verdict=Verdict.DROP_OUTDATED,
            reason=f"UNM version {unm.new_version} < pending UIM version {uim_version}",
        )
    if uim is None:
        # A version-0 UNM: no configuration is that old.
        return Decision(verdict=Verdict.DROP_OUTDATED, reason="UNM version 0 and no pending UIM")
    if uim.new_distance == unm.new_distance + 1:
        return Decision(
            verdict=Verdict.UPDATE,
            new_state=apply_sl_state(uim.version, uim.new_distance),
            branch="sl",
        )
    return Decision(
        verdict=Verdict.DROP_DISTANCE,
        reason=(
            f"UNM distance {unm.new_distance} incompatible with UIM "
            f"distance {uim.new_distance} (expected parent at "
            f"{uim.new_distance - 1})"
        ),
    )


def verify_dl(
    uim: Optional[UIM],
    unm: UNMFields,
    state: NodeFlowState,
    allow_consecutive_dual: bool = False,
) -> Decision:
    """Algorithm 2 — DL verification at node v.

    Falls back to :func:`verify_sl` when there is no pending UIM or when
    it or the UNM is not of dual type (Alg. 2 line 2).

    ``allow_consecutive_dual`` enables the App. C extension: a gateway
    whose last update was dual-layer may accept another dual-layer
    update.  Acceptance still requires a strictly smaller inherited
    old distance for parallel (second-layer) proposals; when segment
    ids are saturated (equal), only the sequential first-layer chain —
    whose egress-to-ingress order gives SL-grade loop safety — is
    accepted, so correctness degrades gracefully instead of breaking.
    """
    if uim is None or uim.update_type is not UpdateType.DUAL:
        return verify_sl(uim, unm)     # with no UIM, Alg. 2 has only its version checks
    if unm.update_type is not UpdateType.DUAL:
        return verify_sl(uim, unm)

    if unm.new_version > uim.version:
        return Decision(verdict=Verdict.WAIT, reason="no UIM for this version yet")
    if unm.new_version < uim.version:
        return Decision(
            verdict=Verdict.DROP_OUTDATED,
            reason=f"UNM version {unm.new_version} < pending UIM version {uim.version}",
        )

    # unm.new_version == uim.version from here on.
    if state.new_version + 1 < unm.new_version:
        # Node inside a segment (no rules yet, or lagging more than one
        # version): update early, inheriting the sender's old distance.
        if uim.new_distance == unm.new_distance + 1:
            return Decision(
                verdict=Verdict.UPDATE,
                new_state=NodeFlowState(
                    new_version=unm.new_version,
                    new_distance=uim.new_distance,
                    old_version=unm.new_version - 1,
                    old_distance=unm.old_distance,
                    counter=unm.counter + 1,
                    update_type=UpdateType.DUAL,
                ),
                branch="inside",
            )
        return Decision(
            verdict=Verdict.DROP_DISTANCE,
            reason=(
                f"inside-segment distance mismatch: UIM {uim.new_distance} "
                f"!= UNM {unm.new_distance} + 1"
            ),
        )

    if state.new_version + 1 == unm.new_version == unm.old_version + 1:
        # Gateway node (start/end of a segment).
        if uim.new_distance != unm.new_distance + 1:
            return Decision(
                verdict=Verdict.DROP_DISTANCE,
                reason=(
                    f"gateway distance mismatch: UIM {uim.new_distance} != "
                    f"UNM {unm.new_distance} + 1"
                ),
            )
        if state.update_type is UpdateType.DUAL and not allow_consecutive_dual:
            return Decision(
                verdict=Verdict.DROP_CONSECUTIVE_DUAL,
                reason="previous update was dual-layer; SL required first (§11)",
            )
        if (
            state.update_type is UpdateType.DUAL
            and allow_consecutive_dual
            and state.old_distance == unm.old_distance
            and unm.layer == 1
        ):
            # App. C: saturated segment ids — accept only along the
            # sequential first-layer chain.
            return Decision(
                verdict=Verdict.UPDATE,
                new_state=NodeFlowState(
                    new_version=uim.version,
                    new_distance=uim.new_distance,
                    old_version=unm.old_version,
                    old_distance=unm.old_distance,
                    counter=unm.counter + 1,
                    update_type=UpdateType.DUAL,
                ),
                branch="gateway",
            )
        # Corrected Alg. 2 line 19: compare OLD distances (segment ids).
        if state.old_distance > unm.old_distance:
            return Decision(
                verdict=Verdict.UPDATE,
                new_state=NodeFlowState(
                    new_version=uim.version,
                    new_distance=uim.new_distance,
                    old_version=unm.old_version,
                    old_distance=unm.old_distance,
                    counter=unm.counter + 1,
                    update_type=UpdateType.DUAL,
                ),
                branch="gateway",
            )
        return Decision(
            verdict=Verdict.REJECT_STAY,
            reason=(
                f"backward proposal: own segment id {state.old_distance} <= "
                f"offered {unm.old_distance}"
            ),
        )

    if (
        state.new_version == unm.new_version
        and state.old_version == unm.old_version
    ):
        # Already-updated node used to pass smaller old distances upstream.
        if state.new_distance == uim.new_distance == unm.new_distance + 1:
            if state.old_distance > unm.old_distance or (
                state.old_distance == unm.old_distance
                and state.counter > unm.counter
            ):
                return Decision(
                    verdict=Verdict.PASS_ON,
                    new_state=state._replace(
                        old_distance=unm.old_distance,
                        counter=unm.counter + 1,
                    ),
                    branch="pass_on",
                )
            if unm.layer == 1:
                # A first-layer UNM carrying nothing new is still a
                # notification that downstream is ready: relay it
                # upstream (needed for §11 loss re-triggers and the
                # App. C saturated-segment-id case; relaying never
                # changes rules and the chain is acyclic).
                return Decision(
                    verdict=Verdict.PASS_ON,
                    new_state=state._replace(counter=unm.counter + 1),
                    branch="pass_on",
                )
        return Decision(verdict=Verdict.IGNORE, reason="no smaller segment id offered")

    return Decision(verdict=Verdict.IGNORE, reason="UNM irrelevant for current state")
