"""``Pipeline(P4UpdateProgram)`` against the spec of Alg. 1/2, §8 and
§11 in ``tests/core/alg_spec.py``, over every point of a stated domain.

Each case builds a fresh program with one flow slot (so cell 0 of every
array is the whole register file), writes a pre-state, runs one packet
through ``Pipeline.process`` with a stub agent, and compares everything
the pass did with the spec's prediction: verdict and branch, resubmit,
CPU punts, clones and their ``unm`` fields, install requests, the
probe's TTL, tag and egress port, agent notes, the register file and
``program.stats``.

A UNM is checked against Alg. 2 over relations, not value ranges: the
UNM is fixed at version ``V``, distance ``D``, segment id ``DO`` and
counter ``C``, and each compared quantity takes a value below, at and
above it.  ``UNM_REGIONS`` are products over ``UNM_RANGES``; an axis a
region does not list holds its ``UNM_HELD`` value, because the branch
the region aims at does not read it.  Every case of every region is
checked in full, whatever branch it ends in.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Callable, Optional

import repro.core.dataplane as dataplane
from repro.analysis.pipecheck import _class_methods
from repro.analysis.plan import reachable
from repro.core.dataplane import P4UpdateProgram
from repro.core.messages import UIM, UNMFields, UpdateType, make_cleanup, make_probe
from repro.core.registers import LOCAL_DELIVER_PORT, NO_PORT
from repro.core.verification import Verdict
from repro.p4.packet import Packet
from repro.p4.pipeline import Pipeline
from tests.core import alg_spec

FLOW = 5
CHILD = 7           # the UIM's child port, also its clone session
EGRESS = 9          # the UIM's new egress port
PORT = 4            # the applied rule's port

V, D, DO, C = 2, 2, 1, 1    # the UNM's version, distance, segment id and counter
NONE, SL, DL = (int(t) for t in UpdateType)

#: (is_ingress, is_gateway, child_port): the roles a pending UIM gives.
ROLES = tuple(itertools.product((False, True), (False, True), (CHILD, None)))

UNM_RANGES: dict[str, tuple] = {
    "uim_type": (SL, DL),
    "unm_type": (SL, DL),
    "uim_version": (None, V - 1, V, V + 1),     # None: no pending UIM
    "unm_version": (0, V),
    "uim_distance": (D, D + 1, D + 2),          # against D_n(UNM) + 1
    "vn": (V - 2, V - 1, V, V + 1),             # V_n(v) + 1 against V_n(UNM)
    "dn": (D + 1, D + 2),                       # D_n(v) against D_n(UIM)
    "vo": (V - 1, V),                           # V_o(v) against V_o(UNM)
    "do": (DO - 1, DO, DO + 1),                 # D_o(v) against D_o(UNM)
    "c": (C - 1, C, C + 1),                     # C(v) against C(UNM)
    "t": (NONE, SL, DL),                        # t(v), the last update type
    "vo_unm": (V - 2, V - 1, V),                # V_o(UNM) + 1 against V_n(UNM)
    "layer": (1, 2),
    "acd": (False, True),                       # allow_consecutive_dual
    "roles": ROLES,
    "installing": (V - 1, V),                   # the agent's in-flight install
}

UNM_HELD: dict[str, Any] = {
    "uim_type": DL, "unm_type": DL, "uim_version": V, "unm_version": V,
    "uim_distance": D + 1, "vn": V - 1, "dn": D + 1, "vo": V - 1, "do": DO + 1,
    "c": C - 1, "t": SL, "vo_unm": V - 1, "layer": 1, "acd": False,
    "roles": (False, False, CHILD), "installing": V - 1,
}

_ALL = None     # a region axis that takes its whole range


def _region(*axes: str, **values: tuple) -> dict[str, Optional[tuple]]:
    return {**dict.fromkeys(axes, _ALL), **values}


UNM_REGIONS = {
    # Alg. 1, and Alg. 2 up to its version checks (lines 2-4): the two
    # types and the versions decide; a node at or past V relays.
    "versions": _region(
        "uim_type", "unm_type", "uim_version", "unm_version", "uim_distance",
        "vn", "layer", "roles", "installing",
    ),
    # Alg. 2 behind by two (inside) or one (gateway): segment ids, the
    # last type and App. C decide.
    "inside_gateway": _region(
        "uim_distance", "vo_unm", "do", "t", "acd", "layer", "roles", "installing",
        vn=(V - 2, V - 1),
    ),
    # Alg. 2 at or past V: the pass-on case and what it relays.
    "pass_on": _region(
        "uim_distance", "dn", "vo", "vo_unm", "do", "c", "layer", "roles",
        vn=(V, V + 1),
    ),
}

UNM_DOMAIN_SIZE = 12_288 + 10_368 + 10_368     # versions, inside_gateway, pass_on


def product(ranges: dict[str, tuple]):
    for values in itertools.product(*ranges.values()):
        yield dict(zip(ranges, values))


def unm_domain():
    """Every point of every region, as ``{axis: value}``."""
    for region in UNM_REGIONS.values():
        for point in product({
            name: UNM_RANGES[name] if values is _ALL else values
            for name, values in region.items()
        }):
            yield {**UNM_HELD, **point}


# -- running one pass ----------------------------------------------------------------


class Agent:
    """The switch agent as the pipeline sees it: the version it is
    installing, and a log of what the pass handed it."""

    def __init__(self, installing: int = 0) -> None:
        self.installing = installing
        self.log: list = []

    def installing_version(self, flow_id: int) -> int:
        return self.installing

    def schedule_install(self, uim, decision, unm_layer) -> None:
        self.log.append((uim.version, tuple(decision.new_state), unm_layer))

    def note_probe_seen(self, flow_id, packet) -> None:
        self.log.append("seen")

    def note_probe_delivered(self, flow_id, packet) -> None:
        self.log.append("delivered")

    def note_probe_ttl_expired(self, flow_id, packet) -> None:
        self.log.append("ttl_expired")

    def note_rule_removed(self, flow_id) -> None:
        self.log.append("rule_removed")


def build(row: Optional[dict], uim: Optional[UIM] = None, installing: int = 0) -> P4UpdateProgram:
    program = P4UpdateProgram(max_flows=1)
    program.set_clone_session(CHILD, CHILD)
    program.agent = Agent(installing)
    if row is not None:
        idx = program.flow_index.index_of(FLOW)
        for name, value in row.items():
            program.registers[name].write(idx, value)
    if uim is not None:
        program.store_uim(uim)
    return program


def register_file(program: P4UpdateProgram) -> dict[str, int]:
    return {name: array.snapshot()[0] for name, array in program.registers.items()}


def outcome(fn: Callable[..., dict], *args: Any) -> dict:
    try:
        return fn(*args)
    except Exception as exc:        # the spec names the inputs that raise
        return {"raises": type(exc).__name__}


def observe(program: P4UpdateProgram, packet: Packet, decisions: list) -> dict:
    """Everything one pass did; ``decisions`` collects what Alg. 1/2 decided."""
    decisions.clear()
    before = dict(program.stats)
    result = Pipeline(program).process(packet)
    verdict = branch = None
    if decisions:
        (decision,) = decisions
        verdict, branch = decision.verdict.value, decision.branch
    return {
        "verdict": verdict, "branch": branch, "resubmit": result.resubmit,
        "egress": result.egress_port,
        # alarm:<verdict> without its detail text; other reasons whole
        "punts": [":".join(punt.reason.split(":")[:2]) for punt in result.punts],
        "clones": [(port, tuple(UNMFields.from_packet(twin))) for port, twin in result.clones],
        "agent": program.agent.log, "regs": register_file(program),
        "stats": {k: v - before[k] for k, v in program.stats.items() if v != before[k]},
    }


# -- the three domains -------------------------------------------------------------


def unm_case(point: dict) -> tuple[P4UpdateProgram, Packet, dict]:
    """The program, the packet and the spec's prediction of one point."""
    ingress, gateway, child = point["roles"]
    uim = None if point["uim_version"] is None else UIM(
        target="s", flow_id=FLOW, version=point["uim_version"],
        new_distance=point["uim_distance"], egress_port=EGRESS, flow_size=1.0,
        update_type=UpdateType(point["uim_type"]), child_port=child,
        is_ingress=ingress, is_gateway=gateway,
    )
    unm = UNMFields(
        flow_id=FLOW, layer=point["layer"], update_type=UpdateType(point["unm_type"]),
        new_version=point["unm_version"], new_distance=D,
        old_version=point["vo_unm"], old_distance=DO, counter=C,
    )
    program = build({
        "cur_version": point["vn"], "cur_distance": point["dn"],
        "old_version": point["vo"], "old_distance": point["do"], "counter": point["c"],
        "last_type": point["t"], "cur_egress_port": PORT,
    }, uim, point["installing"])
    program.allow_consecutive_dual = point["acd"]
    want = outcome(
        alg_spec.unm_pass, register_file(program), uim, unm, point["acd"], point["installing"],
    )
    return program, unm.to_packet(), want


PROBE_RANGES = {
    "applied": (None, 0, 1),    # None: a flow the switch never carried
    "port": (NO_PORT, LOCAL_DELIVER_PORT, PORT),
    "ttl": (1, 2),
    "two_phase": (0, 1),
    "ingress_tag": (0, 1),
    "port_tag0": (NO_PORT, LOCAL_DELIVER_PORT, 6),
    "port_tag1": (NO_PORT, LOCAL_DELIVER_PORT, 8),
    "tagged": (0, 1),
    "tag": (0, 1),
}


def probe_case(point: dict) -> tuple[P4UpdateProgram, Packet, dict]:
    program = build(None if point["applied"] is None else {
        "cur_version": point["applied"], "cur_egress_port": point["port"],
        **{name: point[name] for name in ("two_phase", "ingress_tag", "port_tag0", "port_tag1")},
    })
    probe = make_probe(FLOW, seq=0, ttl=point["ttl"])
    header = probe.header("probe")
    header["tagged"], header["tag"] = point["tagged"], point["tag"]
    want = outcome(
        alg_spec.probe_pass, register_file(program), point["ttl"], point["tagged"], point["tag"],
    )
    return program, probe, want


def probe_extras(program: P4UpdateProgram, probe: Packet) -> dict:
    header = probe.header("probe")
    return {"ttl": probe.ttl, "tagged": header["tagged"], "tag": header["tag"]}


CLEANUP_RANGES = {
    "vn": (0, V - 1, V, V + 1),
    "pending": (None, V - 1, V, V + 1),
    "port": (NO_PORT, LOCAL_DELIVER_PORT, PORT),
}


def cleanup_case(point: dict) -> tuple[P4UpdateProgram, Packet, dict]:
    """A cleanup for version ``V`` at a node holding a reservation on
    its applied rule's port."""
    uim = None if point["pending"] is None else UIM(
        target="s", flow_id=FLOW, version=point["pending"], new_distance=1,
        egress_port=EGRESS, flow_size=1.0, update_type=UpdateType.SINGLE, child_port=CHILD,
    )
    program = build({
        "cur_version": point["vn"], "cur_distance": 3, "old_version": point["vn"],
        "old_distance": 3, "last_type": SL, "cur_egress_port": point["port"],
    }, uim)
    if point["port"] not in (NO_PORT, LOCAL_DELIVER_PORT):
        program.scheduler.occupy(FLOW, point["port"], 1.0)
    held = program.scheduler.committed_port(FLOW)
    want = outcome(alg_spec.cleanup_pass, register_file(program), held, V)
    return program, make_cleanup(FLOW, V), want


def cleanup_extras(program: P4UpdateProgram, _packet: Packet) -> dict:
    return {"held": program.scheduler.committed_port(FLOW)}


DOMAINS = {
    "unm": (unm_domain, unm_case, lambda program, packet: {}),
    "probe": (lambda: product(PROBE_RANGES), probe_case, probe_extras),
    "cleanup": (lambda: product(CLEANUP_RANGES), cleanup_case, cleanup_extras),
}


# -- the enumeration -----------------------------------------------------------------------


@functools.cache
def enumeration() -> dict[str, Any]:
    """Run every domain once: the disagreements and size per class, the
    (verdict, branch) pairs the UNM passes reached, and every array some
    pass changed."""
    decisions: list = []
    plain = dataplane.verify_dl

    def recorded(*args, **kwargs):
        decisions.append(plain(*args, **kwargs))
        return decisions[-1]

    found: dict[str, list] = {name: [] for name in DOMAINS}
    sizes = dict.fromkeys(DOMAINS, 0)
    reached: set = set()
    changed: set = set()
    dataplane.verify_dl = recorded
    try:
        for name, (domain, case, extras) in DOMAINS.items():
            for point in domain():
                sizes[name] += 1
                program, packet, want = case(point)
                before = register_file(program)
                got = outcome(lambda: {**observe(program, packet, decisions),
                                       **extras(program, packet)})
                if got != want:
                    found[name].append((point, got, want))
                changed.update(k for k, v in got.get("regs", before).items() if v != before[k])
                reached.update((d.verdict, d.branch) for d in decisions)
    finally:
        dataplane.verify_dl = plain
    return {"found": found, "sizes": sizes, "reached": reached, "changed": changed}


def _no_disagreement(name: str) -> None:
    found = enumeration()["found"][name]
    assert not found, (
        f"{len(found)} of {enumeration()['sizes'][name]} {name} cases disagree; "
        "first: point {}\n  pipeline {}\n  spec     {}".format(*found[0])
    )


def test_every_unm_case_matches_alg1_alg2():
    assert enumeration()["sizes"]["unm"] == UNM_DOMAIN_SIZE
    _no_disagreement("unm")


def test_every_probe_case_matches_the_spec():
    assert enumeration()["sizes"]["probe"] == 3 * 3 * 2 * 2 * 2 * 3 * 3 * 2 * 2
    _no_disagreement("probe")


def test_every_cleanup_case_matches_the_spec():
    assert enumeration()["sizes"]["cleanup"] == 4 * 4 * 3
    _no_disagreement("cleanup")


def test_a_packet_with_no_valid_header_is_dropped_untouched():
    program = build({"cur_version": 1, "cur_egress_port": PORT})
    assert observe(program, Packet(), []) == {
        "verdict": None, "branch": None, "resubmit": False, "egress": None, "punts": [],
        "clones": [], "agent": [], "regs": register_file(program), "stats": {},
    }


def test_the_domain_reaches_every_verdict_and_branch():
    reached = enumeration()["reached"]
    assert {verdict for verdict, _ in reached} == set(Verdict)
    assert {branch for _, branch in reached} >= {"sl", "inside", "gateway", "pass_on"}


def test_every_unm_axis_takes_each_of_its_values():
    """So each relation Alg. 1/2 tests takes each of its outcomes."""
    seen: dict[str, set] = {axis: set() for axis in UNM_RANGES}
    for point in unm_domain():
        for axis, value in point.items():
            seen[axis].add(value)
    assert seen == {axis: set(values) for axis, values in UNM_RANGES.items()}


def test_the_compared_register_file_is_what_pipecheck_says_ingress_writes():
    """Every array ``define_uib`` declares is compared; the arrays some
    case changes are ones ``analysis/pipecheck`` finds ingress writing,
    and the one it writes that no case changes is ``flow_priority``: a
    fresh scheduler never raises a flow's priority."""
    facts = _class_methods(P4UpdateProgram)
    calls = {name: info.calls & facts.keys() for name, (info, _, _) in facts.items()}
    written = set().union(*(facts[name][0].writes for name in reachable(calls, {"ingress"})))
    program = P4UpdateProgram(max_flows=1)
    assert set(register_file(program)) == set(program.registers) >= written
    changed = enumeration()["changed"]
    assert changed <= written
    assert written - changed == {"flow_priority"}
