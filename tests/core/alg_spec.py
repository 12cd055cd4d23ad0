"""What one ingress pass of P4Update's program does, written from the docs.

The oracle of ``tests/core/test_pipeline_spec.py``.  For one packet and
the register file of one switch it predicts the whole pass: the verdict
and branch of Alg. 1 / Alg. 2, resubmit, the CPU punts, each clone's
session port and ``unm`` fields, the install request handed to the
agent, the probe's TTL, tag and egress port, the agent notes, and the
register file and ``program.stats`` after the pass.

It is written from docs/PROTOCOL.md (the walk-through, App. C, Fig. 6,
§7.4 and §11) and DESIGN.md §2 (Alg. 2 line 19 compares *old*
distances), and imports nothing from ``repro.core.verification`` or
``repro.core.dataplane``, the code it checks.  Where the docs leave a
choice, the reading the shipped program makes is encoded here and named
in docs/PROTOCOL.md, "Readings"; each such line is marked ``# Reading:``.

A register file is a dict ``{array name: value}`` of the one flow the
checked switch carries (every array ``define_uib`` declares); a
prediction is a plain dict, so the test compares it with ``==``.
"""

from __future__ import annotations

from typing import Optional

from repro.core.messages import UIM, UNMFields, UpdateType
from repro.core.registers import LOCAL_DELIVER_PORT, NO_PORT

SL, DL = int(UpdateType.SINGLE), int(UpdateType.DUAL)

#: The applied tier Alg. 2 reads as V_n(v), D_n(v), V_o(v), D_o(v), C(v), t(v).
APPLIED = ("cur_version", "cur_distance", "old_version", "old_distance", "counter", "last_type")


def _pass(regs: dict[str, int], **fields) -> dict:
    """A pass that drops the packet and changes nothing, with ``fields``."""
    return {
        "verdict": None, "branch": None, "resubmit": False, "egress": None, "punts": [],
        "clones": [], "agent": [], "regs": dict(regs), "stats": {}, **fields,
    }


# -- Alg. 1 / Alg. 2 -------------------------------------------------------------


def alg1(uim: Optional[UIM], unm: UNMFields) -> tuple[str, str, Optional[tuple]]:
    """Alg. 1 (SL): ``(verdict, branch, new applied row)``.

    The UNM's version against the pending UIM's (0 without one): newer
    waits for its UIM, older is outdated (Fig. 6c); equal must come from
    the parent one hop closer to the egress (Fig. 6b), and the node then
    applies with old := new (App. B)."""
    pending = uim.version if uim is not None else 0
    if unm.new_version > pending:
        return "wait", "", None
    if unm.new_version < pending:
        return "drop_outdated", "", None
    if uim is None:
        # Reading: a version-0 UNM at a node with no pending UIM is outdated.
        return "drop_outdated", "", None
    if uim.new_distance != unm.new_distance + 1:
        return "drop_distance", "", None
    return "update", "sl", (uim.version, uim.new_distance, uim.version, uim.new_distance, 0, SL)


def alg2(
    uim: Optional[UIM], unm: UNMFields, regs: dict[str, int], allow_consecutive_dual: bool,
) -> tuple[str, str, Optional[tuple]]:
    """Alg. 2 (DL): ``(verdict, branch, new applied row)``; Alg. 1 when
    the pending UIM or the UNM is not dual-layer (line 2)."""
    if (uim is not None and uim.update_type != DL) or unm.update_type != DL:
        return alg1(uim, unm)
    pending = uim.version if uim is not None else 0
    if unm.new_version > pending:
        return "wait", "", None
    if unm.new_version < pending:
        return "drop_outdated", "", None
    if uim is None:
        # Reading: a version-0 UNM at a node with no pending UIM is outdated.
        return "drop_outdated", "", None
    vn, dn, vo, do, c, t = (regs[name] for name in APPLIED)
    v = unm.new_version
    parent_ok = uim.new_distance == unm.new_distance + 1
    # The row a node takes when it accepts: its UIM's configuration,
    # the sender's segment id (old distance), the chain counter + 1.
    def accepted(old_version: int, branch: str) -> tuple[str, str, tuple]:
        row = (v, uim.new_distance, old_version, unm.old_distance, unm.counter + 1, DL)
        return "update", branch, row

    if vn + 1 < v:
        # Inside a segment: no rule of the previous version to protect.
        return accepted(v - 1, "inside") if parent_ok else ("drop_distance", "", None)
    if vn + 1 == v and unm.old_version + 1 == v:
        # A gateway: on the old and the new path.
        if not parent_ok:
            return "drop_distance", "", None
        if t == DL and not allow_consecutive_dual:
            return "drop_consecutive_dual", "", None
        # Line 19 as DESIGN.md §2 corrects it: join only a strictly
        # smaller segment id.  App. C: after a dual-layer update the
        # saturated (equal) id is accepted along the first-layer chain.
        if do > unm.old_distance or (t == DL and do == unm.old_distance and unm.layer == 1):
            return accepted(unm.old_version, "gateway")
        return "reject_stay", "", None
    if vn == v and vo == unm.old_version:
        # Already updated: pass a smaller segment id (or, at equal ids,
        # a longer chain) upstream; a first-layer UNM is always relayed.
        if dn == uim.new_distance and parent_ok:
            if do > unm.old_distance or (do == unm.old_distance and c > unm.counter):
                return "pass_on", "pass_on", (vn, dn, vo, unm.old_distance, unm.counter + 1, t)
            if unm.layer == 1:
                return "pass_on", "pass_on", (vn, dn, vo, do, unm.counter + 1, t)
        return "ignore", "", None
    return "ignore", "", None


# -- the three packet classes (§8, App. B, §11) ------------------------------------------


def _relay(uim: UIM, unm: UNMFields, row: tuple) -> tuple[list, list]:
    """``(punts, clones)`` of a notification that moves on upstream: the
    flow ingress turns a first-layer UNM into the UFM (§8); a
    second-layer UNM stops at a gateway; anything else is cloned to the
    child carrying ``row``."""
    if uim.is_ingress and unm.layer == 1:
        return ["ufm_success"], []
    if (uim.is_gateway and unm.layer == 2) or uim.child_port is None:
        return [], []
    vn, dn, vo, do, c, _t = row
    # Reading: a relayed clone is typed dual-layer, whatever it relays.
    fields = (unm.flow_id, unm.layer, DL, vn, dn, vo, do, c)
    return [], [(uim.child_port, fields)]


def unm_pass(
    regs: dict[str, int], uim: Optional[UIM], unm: UNMFields,
    allow_consecutive_dual: bool, installing: int,
) -> dict:
    """One pass of a UNM; ``installing`` is the version the agent is
    installing for the flow (0 when none)."""
    verdict, branch, row = alg2(uim, unm, regs, allow_consecutive_dual)
    processed = {"unm_processed": 1}
    out = _pass(regs, verdict=verdict, branch=branch, stats=processed)
    if verdict == "wait":
        # §8: P4 has no timer, so the UNM waits for its UIM by resubmission.
        return dict(out, resubmit=True, stats={**processed, "unm_waits": 1})
    if verdict.startswith("drop_"):
        return dict(out, punts=[f"alarm:{verdict}"], stats={**processed, "unm_rejects": 1})
    if verdict in ("reject_stay", "ignore"):
        return out
    if verdict == "pass_on":
        out["regs"].update(zip(APPLIED, row))
        punts, clones = _relay(uim, unm, row)
        return dict(out, punts=punts, clones=clones)
    applied = tuple(regs[name] for name in APPLIED)
    if applied[0] >= unm.new_version:
        # A re-triggered notification (§11) at a node that has already
        # applied: nothing to install, relay what the node holds.
        punts, clones = _relay(uim, unm, applied)
        return dict(out, punts=punts, clones=clones)
    if installing >= unm.new_version:
        # The install of this version is in flight: re-verify after it.
        return dict(out, resubmit=True)
    # A fresh scheduler admits every move (§7.4 has nothing to defer).
    return dict(out, agent=[(uim.version, row, unm.layer)])


def probe_pass(regs: dict[str, int], ttl: int, tagged: int, tag: int) -> dict:
    """One pass of a probe: forwarding by the ``cur_egress_port``
    register (§8), by the packet's tag under 2-phase commit (§11), an
    FRM for a flow the switch does not know (App. B)."""
    out = _pass(regs, agent=["seen"], ttl=ttl, tagged=tagged, tag=tag)
    if regs["cur_version"] == 0:
        return dict(out, punts=["frm"], stats={"probes_blackholed": 1})
    port = regs["cur_egress_port"]
    if regs["two_phase"]:
        if not tagged:
            out.update(tagged=1, tag=regs["ingress_tag"])
        # Reading: a tag with no staged rule falls back to the live rule.
        staged = regs["port_tag1" if out["tag"] else "port_tag0"]
        port = port if staged == NO_PORT else staged
    if port == LOCAL_DELIVER_PORT:
        return dict(out, agent=["seen", "delivered"], stats={"probes_delivered": 1})
    if port == NO_PORT:
        return dict(out, stats={"probes_blackholed": 1})
    if ttl <= 1:
        return dict(out, agent=["seen", "ttl_expired"], stats={"probes_ttl_expired": 1})
    return dict(out, egress=port, ttl=ttl - 1, stats={"probes_forwarded": 1})


def cleanup_pass(regs: dict[str, int], held_port: Optional[int], version: int) -> dict:
    """One pass of a §11 cleanup for ``version``: a node outside the new
    configuration (neither applied nor pending at ``version``) removes
    its rule, resets its row, frees the reservation it holds on
    ``held_port`` and passes the cleanup on along the old rule."""
    out = _pass(regs, held=held_port)
    port = regs["cur_egress_port"]
    if max(regs["cur_version"], regs["pend_version"]) >= version:
        return out
    if port in (NO_PORT, LOCAL_DELIVER_PORT):
        return out
    out["regs"].update(dict.fromkeys(APPLIED, 0), cur_egress_port=NO_PORT)
    return dict(out, egress=port, agent=["rule_removed"], held=None)
