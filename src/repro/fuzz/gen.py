"""Seeded generators and mutation strategies for fuzz cases.

A :class:`FuzzCase` is one self-contained, JSON-serialisable input to
the platform's oracles (:mod:`repro.fuzz.oracles`).  Four case kinds
cover the surfaces the paper's invariants protect:

* ``plan`` — a batch of update plans for the static verifier and the
  interference analyzer (PR 2 / PR 7 oracles).  The
  :mod:`repro.analysis.advgen` injectors are reused as one generation
  strategy among several; a second strategy synthesises well-formed
  plans and then applies structural mutations (dropped installs,
  skewed distances, version rewinds, dependency cycles).
* ``chaos`` — a :class:`~repro.chaos.campaign.FaultCampaign` schedule
  over a real topology: link/switch/controller events plus
  probabilistic message faults and protocol-recovery knobs.
* ``serve`` — a :class:`~repro.serve.spec.ServeSpec` workload with
  randomised admission, orchestration and capacity knobs.
* ``divergence`` — one seeded scenario run under two systems
  (SL vs DL, or P4Update vs ez-Segway) whose results must agree.
* ``ops`` — a :class:`~repro.ops.spec.SessionSpec` operations session:
  background serve churn overlaid with a randomised timeline of
  drain/undrain/migrate/rebalance operations (PR 9 oracles: the live
  checker plus the move state machine's no-stranded-flows property).
* ``compete`` — one seeded serve workload replayed under two or three
  registered update strategies (:mod:`repro.algos`); the oracle runs
  the live checker per strategy and flags cross-strategy final-route
  divergence whenever the per-flow completed-toggle counts match (the
  guarded comparison — differing abort/park subsets make raw route
  diffs meaningless, matching toggle counts make them exact).

Everything is deterministic in ``(seed, index)``: every draw comes
from ``numpy.random.default_rng([seed, index, lane, _FUZZ_STREAM])``
with a stream tag disjoint from the advgen/scenario/serve/fault
streams.  Mutations (`splice`, `knob-perturb`, `fault-insert`,
`plan-crossover`) evolve retained corpus cases without ever touching
hidden global state, so campaigns replay bit-identically.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

import numpy as np

from repro.analysis.advgen import (
    CONFLICT_KINDS,
    AdversarialCase,
    generate_conflict_cases,
    generate_disjoint_pairs,
    plan_from_paths,
)
from repro.analysis.plan import plan_to_dict
from repro.chaos.campaign import CORRUPTORS

#: RNG stream tag, disjoint from every other subsystem stream
#: (advgen 0xADF6, scenario 0x5CE2, serve 0x5EF1/0x5EA2, faults 0xFA017).
_FUZZ_STREAM = 0xF422

#: Case kinds the generator knows how to build.
FUZZ_KINDS = ("plan", "chaos", "serve", "divergence", "ops", "compete")

#: Generation strategies for ``plan`` cases.
PLAN_STRATEGIES = ("advgen-conflict", "advgen-disjoint", "random-mutated")

#: Mutation strategies applied to retained corpus cases.
MUTATIONS = ("splice", "knob-perturb", "fault-insert", "plan-crossover")

_CHAOS_TOPOLOGIES = ("fig1", "fig2", "b4")
_SERVE_TOPOLOGIES = ("fig1", "b4")
_OPS_TOPOLOGIES = ("fig1", "b4")
_DIVERGENCE_TOPOLOGIES = ("fig1", "b4", "internet2")
_SYSTEM_PAIRS = (
    ("p4update-sl", "p4update-dl"),
    ("p4update", "ezsegway"),
)
_COMPETE_TOPOLOGIES = ("fig1", "b4")
#: Strategy line-ups for ``compete`` cases (every name registered in
#: :mod:`repro.algos.registry`).  Static tuples keep the generator
#: import-light; the registry test asserts they stay registered.
_COMPETE_STRATEGY_SETS = (
    ("p4update", "central"),
    ("p4update", "ezsegway"),
    ("p4update", "augmented"),
    ("p4update", "synthesis"),
    ("p4update-sl", "p4update-dl"),
    ("central", "augmented", "synthesis"),
)


@dataclass(frozen=True)
class FuzzCase:
    """One generated input: a kind tag plus a JSON-safe payload."""

    kind: str
    name: str
    seed: int
    payload: dict = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "seed": self.seed,
            "payload": copy.deepcopy(self.payload),
        }


def case_from_dict(data: dict) -> FuzzCase:
    """Inverse of :meth:`FuzzCase.to_dict` (validates the kind)."""
    kind = str(data["kind"])
    if kind not in FUZZ_KINDS:
        raise ValueError(f"unknown fuzz case kind {kind!r}; known: {FUZZ_KINDS}")
    return FuzzCase(
        kind=kind,
        name=str(data.get("name", kind)),
        seed=int(data.get("seed", 0)),
        payload=copy.deepcopy(dict(data["payload"])),
    )


def canonical_payload(payload: dict) -> str:
    """Canonical JSON of a payload — the size/identity basis."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def case_rng(seed: int, index: int, lane: int = 0) -> np.random.Generator:
    """The deterministic per-case generator stream."""
    return np.random.default_rng([seed, index, lane, _FUZZ_STREAM])


# -- topology material -------------------------------------------------------

_TOPOLOGY_CACHE: dict[str, tuple[tuple[str, ...], tuple[tuple[str, str], ...]]] = {}


def topology_material(name: str) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Sorted ``(nodes, edges)`` of a named topology (cached)."""
    cached = _TOPOLOGY_CACHE.get(name)
    if cached is None:
        from repro.topo import TOPOLOGIES

        topo = TOPOLOGIES[name]()
        nodes = tuple(sorted(str(n) for n in topo.graph.nodes()))
        edges = tuple(
            sorted((str(a), str(b)) if str(a) < str(b) else (str(b), str(a))
                   for a, b in topo.graph.edges())
        )
        cached = (nodes, edges)
        _TOPOLOGY_CACHE[name] = cached
    return cached


def _pick(rng: np.random.Generator, options: Sequence[Any]) -> Any:
    return options[int(rng.integers(0, len(options)))]


def _seed32(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


# -- plan cases --------------------------------------------------------------


def _payload_from_adversarial(case: AdversarialCase, strategy: str) -> dict:
    return {
        "strategy": strategy,
        "expect_kind": case.expect_kind,
        "plans": [plan_to_dict(plan) for plan in case.plans],
        "capacities": {
            f"{a}|{b}": float(cap)
            for (a, b), cap in sorted(case.capacities.items())
        },
        "congestion_aware": bool(case.congestion_aware),
        "policies": case.policies.to_dict(),
    }


#: Structural plan mutations (applied to the serialised plan doc so
#: the result can encode states no controller would emit).
PLAN_MUTATION_OPS = (
    "drop-install",
    "dup-install",
    "skew-distance",
    "rewind-version",
    "drop-notify",
    "cycle-dependency",
)


def mutate_plan_doc(doc: dict, rng: np.random.Generator) -> dict:
    """Apply one structural mutation to a serialised plan document."""
    doc = copy.deepcopy(doc)
    op = _pick(rng, PLAN_MUTATION_OPS)
    installs = [dict(i) for i in doc.get("installs", [])]
    if op == "drop-install" and len(installs) > 1:
        del installs[int(rng.integers(0, len(installs)))]
    elif op == "dup-install" and installs:
        installs.append(dict(installs[int(rng.integers(0, len(installs)))]))
    elif op == "skew-distance" and installs:
        i = int(rng.integers(0, len(installs)))
        installs[i]["distance"] = int(installs[i]["distance"]) + int(rng.integers(1, 4))
    elif op == "rewind-version":
        doc["version"] = int(doc.get("prior_version", 0))
    elif op == "drop-notify":
        edges = [list(e) for e in doc.get("notify_edges", [])]
        if edges:
            del edges[int(rng.integers(0, len(edges)))]
            doc["notify_edges"] = edges
    elif op == "cycle-dependency":
        nodes = [str(i["node"]) for i in installs]
        if len(nodes) >= 2:
            a, b = nodes[0], nodes[1]
            deps = [list(d) for d in doc.get("dependencies", [])]
            deps.extend([[a, b], [b, a]])
            doc["dependencies"] = deps
    doc["installs"] = installs
    return doc


def _random_plan_doc(rng: np.random.Generator, flow_id: int) -> dict:
    """A well-formed random reroute plan over fresh synthetic nodes."""
    pool = [f"n{int(j):02d}" for j in rng.permutation(26)]
    old_mids = int(rng.integers(1, 4))
    new_mids = int(rng.integers(1, 4))
    ingress, egress = pool[0], pool[1]
    old_path = [ingress] + pool[2:2 + old_mids] + [egress]
    new_path = [ingress] + pool[2 + old_mids:2 + old_mids + new_mids] + [egress]
    plan = plan_from_paths(
        flow_id,
        old_path,
        new_path,
        flow_size=round(float(rng.uniform(0.5, 1.5)), 2),
    )
    return plan_to_dict(plan)


def gen_plan_case(rng: np.random.Generator) -> dict:
    strategy = _pick(rng, PLAN_STRATEGIES)
    if strategy == "advgen-conflict":
        kind = _pick(rng, CONFLICT_KINDS)
        adv = generate_conflict_cases(_seed32(rng), count=1, kinds=[kind])[0]
        return _payload_from_adversarial(adv, strategy)
    if strategy == "advgen-disjoint":
        adv = generate_disjoint_pairs(_seed32(rng), count=1)[0]
        return _payload_from_adversarial(adv, strategy)
    # random-mutated: one or two well-formed plans, then 1..3 mutations.
    plans = [_random_plan_doc(rng, flow_id=_seed32(rng))]
    if rng.random() < 0.5:
        plans.append(_random_plan_doc(rng, flow_id=_seed32(rng)))
    for _ in range(int(rng.integers(1, 4))):
        i = int(rng.integers(0, len(plans)))
        plans[i] = mutate_plan_doc(plans[i], rng)
    return {
        "strategy": strategy,
        "expect_kind": None,  # ground truth lost once mutated
        "plans": plans,
        "capacities": {},
        "congestion_aware": True,
        "policies": {
            "same_flow": bool(rng.random() < 0.5),
            "shared_switch": False,
            "max_in_flight": 0,
            "extra_order": [],
        },
    }


# -- chaos cases -------------------------------------------------------------


def _random_topo_events(
    rng: np.random.Generator, topology: str, horizon_ms: float
) -> list[dict]:
    nodes, edges = topology_material(topology)
    events: list[dict] = []
    for _ in range(int(rng.integers(0, 3))):
        time_ms = round(float(rng.uniform(5.0, min(400.0, horizon_ms / 4.0))), 1)
        family = int(rng.integers(0, 3))
        if family == 0 and edges:
            a, b = _pick(rng, edges)
            events.append({"time_ms": time_ms, "kind": "link_down",
                           "node_a": a, "node_b": b})
            if rng.random() < 0.5:
                events.append({"time_ms": round(time_ms + float(rng.uniform(20.0, 200.0)), 1),
                               "kind": "link_up", "node_a": a, "node_b": b})
        elif family == 1 and nodes:
            node = _pick(rng, nodes)
            events.append({"time_ms": time_ms, "kind": "switch_crash",
                           "node_a": node})
            if rng.random() < 0.5:
                events.append({"time_ms": round(time_ms + float(rng.uniform(20.0, 200.0)), 1),
                               "kind": "switch_restart", "node_a": node})
        else:
            events.append({"time_ms": time_ms, "kind": "controller_down"})
            events.append({"time_ms": round(time_ms + float(rng.uniform(20.0, 200.0)), 1),
                           "kind": "controller_up"})
    events.sort(key=lambda e: (float(e["time_ms"]), str(e["kind"])))
    return events


def _random_message_faults(rng: np.random.Generator) -> list[dict]:
    faults: list[dict] = []
    for _ in range(int(rng.integers(0, 3))):
        plane = "data" if rng.random() < 0.7 else "control"
        scopes = ("all", "unm", "probe", "cleanup") if plane == "data" else ("all", "uim", "ufm")
        spec: dict[str, Any] = {
            "plane": plane,
            "scope": _pick(rng, scopes),
            "drop_prob": round(float(rng.uniform(0.0, 0.9)), 2),
            "delay_prob": round(float(rng.uniform(0.0, 0.5)), 2),
            "delay_ms": round(float(rng.uniform(1.0, 50.0)), 1),
            "duplicate_prob": round(float(rng.uniform(0.0, 0.3)), 2),
        }
        if plane == "data" and rng.random() < 0.3:
            spec["corrupt_prob"] = round(float(rng.uniform(0.05, 0.5)), 2)
            spec["corruptor"] = _pick(rng, tuple(sorted(CORRUPTORS)))
        faults.append(spec)
    return faults


def gen_chaos_case(rng: np.random.Generator) -> dict:
    topology = _pick(rng, _CHAOS_TOPOLOGIES)
    horizon_ms = 30000.0
    campaign: dict[str, Any] = {
        "name": f"fuzz-{_seed32(rng)}",
        "topology": topology,
        "scenario": "single" if rng.random() < 0.8 else "multi",
        "seed": _seed32(rng),
        "horizon_ms": horizon_ms,
        "update_at_ms": 10.0,
        "update_type": "auto",
        "events": _random_topo_events(rng, topology, horizon_ms),
        "message_faults": _random_message_faults(rng),
        "reliable_control": bool(rng.random() < 0.5),
        "unm_timeout_ms": float(_pick(rng, (0.0, 200.0))),
        "controller_update_timeout_ms": float(_pick(rng, (0.0, 2000.0))),
        "crash_preserves_state": bool(rng.random() < 0.5),
    }
    return {"campaign": campaign}


# -- serve cases -------------------------------------------------------------


def gen_serve_case(rng: np.random.Generator) -> dict:
    topology = _pick(rng, _SERVE_TOPOLOGIES)
    congestion_aware = bool(rng.random() < 0.5)
    link_capacity = 0.0
    if not congestion_aware and rng.random() < 0.7:
        # Tight uniform capacity: transient overcommit really overloads
        # links, which the live checker reports (ServeSpec docstring).
        link_capacity = round(float(rng.uniform(1.0, 4.0)), 2)
    events: list[dict] = []
    if rng.random() < 0.4:
        _, edges = topology_material(topology)
        if edges:
            a, b = _pick(rng, edges)
            down = round(float(rng.uniform(50.0, 2000.0)), 1)
            events.append({"time_ms": down, "kind": "link_down",
                           "node_a": a, "node_b": b})
            events.append({"time_ms": round(down + float(rng.uniform(100.0, 2000.0)), 1),
                           "kind": "link_up", "node_a": a, "node_b": b})
    serve: dict[str, Any] = {
        "name": f"fuzz-{_seed32(rng)}",
        "topology": topology,
        "seed": _seed32(rng),
        "mode": "open",
        "flows": int(rng.integers(2, 8)),
        "requests": int(rng.integers(4, 24)),
        "arrival_rate_per_s": round(float(rng.uniform(20.0, 400.0)), 1),
        "mean_flow_size": round(float(rng.uniform(0.5, 2.0)), 2),
        "queue_depth": int(rng.integers(2, 16)),
        "shed_policy": _pick(rng, ("reject", "park")),
        "conflict_policy": _pick(rng, ("serialize", "merge")),
        "max_in_flight": int(rng.integers(0, 5)),
        "static_interference": _pick(rng, ("off", "warn", "serialize", "reject")),
        "congestion_aware": congestion_aware,
        "link_capacity": link_capacity,
        "horizon_ms": 60000.0,
        "events": events,
    }
    return {"serve": serve}


# -- ops cases ---------------------------------------------------------------


def gen_ops_case(rng: np.random.Generator) -> dict:
    topology = _pick(rng, _OPS_TOPOLOGIES)
    nodes, edges = topology_material(topology)
    horizon_ms = 20000.0
    congestion_aware = bool(rng.random() < 0.5)
    link_capacity = 0.0
    if not congestion_aware and rng.random() < 0.7:
        # Tight uniform capacity: rolling moves transiting hot links
        # really overload them, which the live checker reports.
        link_capacity = round(float(rng.uniform(1.0, 4.0)), 2)
    serve: dict[str, Any] = {
        "name": f"fuzz-{_seed32(rng)}",
        "topology": topology,
        "seed": _seed32(rng),
        "mode": "open",
        "flows": int(rng.integers(3, 8)),
        "requests": int(rng.integers(6, 20)),
        "arrival_rate_per_s": round(float(rng.uniform(20.0, 200.0)), 1),
        "congestion_aware": congestion_aware,
        "link_capacity": link_capacity,
        "horizon_ms": horizon_ms,
        "events": [],
    }
    if rng.random() < 0.5:
        # The §11 controller watchdog: updates stuck on a failed link
        # re-trigger instead of hanging until the horizon.
        serve["params"] = {"controller_update_timeout_ms": 500.0}
    if rng.random() < 0.4 and edges:
        a, b = _pick(rng, edges)
        down = round(float(rng.uniform(500.0, horizon_ms / 3.0)), 1)
        serve["events"] = [
            {"time_ms": down, "kind": "link_down", "node_a": a, "node_b": b},
            {"time_ms": round(down + float(rng.uniform(500.0, 5000.0)), 1),
             "kind": "link_up", "node_a": a, "node_b": b},
        ]
    tenants = int(rng.integers(2, 5))
    timeline: list[dict] = []
    for _ in range(int(rng.integers(1, 4))):
        at_ms = round(float(rng.uniform(500.0, horizon_ms * 0.6)), 1)
        op = _pick(rng, ("drain_switch", "migrate_tenant", "rebalance"))
        if op == "drain_switch":
            switch = _pick(rng, nodes)
            timeline.append({"at_ms": at_ms, "op": "drain_switch",
                             "switch": switch})
            if rng.random() < 0.7:
                timeline.append(
                    {"at_ms": round(at_ms + float(rng.uniform(1000.0, 6000.0)), 1),
                     "op": "undrain_switch", "switch": switch}
                )
        elif op == "migrate_tenant":
            entry: dict[str, Any] = {
                "at_ms": at_ms,
                "op": "migrate_tenant",
                "tenant": int(rng.integers(0, tenants)),
            }
            if rng.random() < 0.3:
                entry["avoid"] = [_pick(rng, nodes)]
            timeline.append(entry)
        else:
            timeline.append({"at_ms": at_ms, "op": "rebalance",
                             "max_moves": int(rng.integers(1, 5))})
    timeline.sort(key=lambda e: (float(e["at_ms"]), str(e["op"])))
    ops: dict[str, Any] = {
        "name": f"fuzz-{_seed32(rng)}",
        "serve": serve,
        "tenants": tenants,
        "timeline": timeline,
        # Checkpoint ticks are scheduled even without a sink, so this
        # knob exercises the event-sequence-parity path too.
        "checkpoint_every_ms": float(_pick(rng, (0.0, 5000.0))),
    }
    return {"ops": ops}


# -- divergence cases --------------------------------------------------------


def gen_divergence_case(rng: np.random.Generator) -> dict:
    return {
        "topology": _pick(rng, _DIVERGENCE_TOPOLOGIES),
        "scenario": "single" if rng.random() < 0.5 else "multi",
        "seed": _seed32(rng),
        "systems": list(_pick(rng, _SYSTEM_PAIRS)),
        "congestion_aware": bool(rng.random() < 0.8),
        "params": {"max_sim_time_ms": 60000.0},
    }


# -- compete cases -----------------------------------------------------------


def gen_compete_case(rng: np.random.Generator) -> dict:
    topology = _pick(rng, _COMPETE_TOPOLOGIES)
    events: list[dict] = []
    if rng.random() < 0.3:
        _, edges = topology_material(topology)
        if edges:
            a, b = _pick(rng, edges)
            down = round(float(rng.uniform(50.0, 1000.0)), 1)
            events.append({"time_ms": down, "kind": "link_down",
                           "node_a": a, "node_b": b})
            events.append({"time_ms": round(down + float(rng.uniform(100.0, 1000.0)), 1),
                           "kind": "link_up", "node_a": a, "node_b": b})
    # One compete case runs a full serve simulation per strategy, so
    # the workload stays deliberately small.
    serve: dict[str, Any] = {
        "name": f"fuzz-{_seed32(rng)}",
        "topology": topology,
        "seed": _seed32(rng),
        "mode": "open",
        "flows": int(rng.integers(2, 6)),
        "requests": int(rng.integers(3, 12)),
        "arrival_rate_per_s": round(float(rng.uniform(20.0, 300.0)), 1),
        "queue_depth": int(rng.integers(2, 12)),
        "shed_policy": _pick(rng, ("reject", "park")),
        "conflict_policy": _pick(rng, ("serialize", "merge")),
        "horizon_ms": 30000.0,
        "events": events,
    }
    if rng.random() < 0.5:
        # The §11 controller watchdog, so link flaps cannot wedge a
        # strategy until the horizon.
        serve["params"] = {"controller_update_timeout_ms": 1000.0}
    return {
        "serve": serve,
        "strategies": list(_pick(rng, _COMPETE_STRATEGY_SETS)),
    }


_GENERATORS = {
    "plan": gen_plan_case,
    "chaos": gen_chaos_case,
    "serve": gen_serve_case,
    "divergence": gen_divergence_case,
    "ops": gen_ops_case,
    "compete": gen_compete_case,
}


def generate_case(
    seed: int, index: int, kinds: Sequence[str] = FUZZ_KINDS
) -> FuzzCase:
    """Fresh case ``index`` of a campaign seeded with ``seed``.

    The kind cycles through ``kinds`` so every enabled surface gets a
    fixed share of the budget; everything else is drawn from the
    per-case stream.
    """
    if not kinds:
        raise ValueError("generate_case needs at least one kind")
    unknown = sorted(set(kinds) - set(FUZZ_KINDS))
    if unknown:
        raise ValueError(f"unknown fuzz kinds {unknown}; known: {FUZZ_KINDS}")
    kind = kinds[index % len(kinds)]
    rng = case_rng(seed, index)
    payload = _GENERATORS[kind](rng)
    return FuzzCase(kind=kind, name=f"{kind}[{index}]", seed=seed, payload=payload)


# -- mutations ---------------------------------------------------------------


def _compatible_events(events: list[dict], topology: str) -> list[dict]:
    """Donor events that actually exist in ``topology``.

    Splice crosses cases that may live on different topologies; an
    event naming a link or switch the base topology does not have
    would crash the event applier (``set_link_state`` raises on
    unknown links), which is a garbage input, not a finding.
    """
    nodes, edges = topology_material(topology)
    node_set, edge_set = set(nodes), set(edges)
    keep: list[dict] = []
    for event in events:
        a, b = event.get("node_a"), event.get("node_b")
        if a is not None and b is not None:
            key = (str(a), str(b)) if str(a) < str(b) else (str(b), str(a))
            if key not in edge_set:
                continue
        elif a is not None and str(a) not in node_set:
            continue
        keep.append(event)
    return keep


def _splice_chaos(base: dict, donor: dict, rng: np.random.Generator) -> dict:
    out = copy.deepcopy(base)
    events = list(out["campaign"].get("events", []))
    events.extend(_compatible_events(
        copy.deepcopy(donor["campaign"].get("events", [])),
        str(out["campaign"]["topology"]),
    ))
    events.sort(key=lambda e: (float(e["time_ms"]), str(e["kind"])))
    out["campaign"]["events"] = events[:4]
    faults = list(out["campaign"].get("message_faults", []))
    faults.extend(copy.deepcopy(donor["campaign"].get("message_faults", [])))
    out["campaign"]["message_faults"] = faults[:3]
    return out


def _splice_serve(base: dict, donor: dict, rng: np.random.Generator) -> dict:
    out = copy.deepcopy(base)
    events = list(out["serve"].get("events", []))
    events.extend(_compatible_events(
        copy.deepcopy(donor["serve"].get("events", [])),
        str(out["serve"]["topology"]),
    ))
    events.sort(key=lambda e: (float(e["time_ms"]), str(e["kind"])))
    out["serve"]["events"] = events[:4]
    return out


def _perturb_chaos(base: dict, rng: np.random.Generator) -> dict:
    out = copy.deepcopy(base)
    campaign = out["campaign"]
    knob = _pick(rng, ("horizon", "reliable", "unm_timeout", "seed", "preserve"))
    if knob == "horizon":
        campaign["horizon_ms"] = float(campaign["horizon_ms"]) * float(_pick(rng, (0.5, 2.0)))
    elif knob == "reliable":
        campaign["reliable_control"] = not bool(campaign.get("reliable_control"))
    elif knob == "unm_timeout":
        current = float(campaign.get("unm_timeout_ms", 0.0))
        campaign["unm_timeout_ms"] = 200.0 if current == 0.0 else 0.0
    elif knob == "seed":
        campaign["seed"] = _seed32(rng)
    else:
        campaign["crash_preserves_state"] = not bool(
            campaign.get("crash_preserves_state")
        )
    return out


def _perturb_serve(base: dict, rng: np.random.Generator) -> dict:
    out = copy.deepcopy(base)
    serve = out["serve"]
    knob = _pick(rng, ("requests", "rate", "queue", "capacity", "policy", "seed"))
    if knob == "requests":
        serve["requests"] = max(1, min(48, int(serve["requests"]) * 2))
    elif knob == "rate":
        serve["arrival_rate_per_s"] = round(
            float(serve["arrival_rate_per_s"]) * float(_pick(rng, (0.5, 2.0))), 1
        )
    elif knob == "queue":
        serve["queue_depth"] = max(1, int(serve["queue_depth"]) // 2)
    elif knob == "capacity":
        serve["congestion_aware"] = not bool(serve.get("congestion_aware", True))
        if not serve["congestion_aware"] and not float(serve.get("link_capacity", 0.0)):
            serve["link_capacity"] = round(float(rng.uniform(1.0, 4.0)), 2)
    elif knob == "policy":
        serve["conflict_policy"] = _pick(rng, ("serialize", "merge"))
        serve["static_interference"] = _pick(rng, ("off", "warn", "serialize", "reject"))
    else:
        serve["seed"] = _seed32(rng)
    return out


def _perturb_plan(base: dict, rng: np.random.Generator) -> dict:
    out = copy.deepcopy(base)
    plans = out.get("plans", [])
    if plans and rng.random() < 0.7:
        i = int(rng.integers(0, len(plans)))
        plans[i] = mutate_plan_doc(plans[i], rng)
    else:
        policies = dict(out.get("policies", {}))
        policies["same_flow"] = not bool(policies.get("same_flow"))
        out["policies"] = policies
    out["expect_kind"] = None  # mutation invalidates the advgen ground truth
    return out


def _perturb_ops(base: dict, rng: np.random.Generator) -> dict:
    out = copy.deepcopy(base)
    ops = out["ops"]
    serve = ops["serve"]
    knob = _pick(rng, ("requests", "rate", "checkpoint", "watchdog", "seed"))
    if knob == "requests":
        serve["requests"] = max(1, min(48, int(serve["requests"]) * 2))
    elif knob == "rate":
        serve["arrival_rate_per_s"] = round(
            float(serve["arrival_rate_per_s"]) * float(_pick(rng, (0.5, 2.0))), 1
        )
    elif knob == "checkpoint":
        current = float(ops.get("checkpoint_every_ms", 0.0))
        ops["checkpoint_every_ms"] = 5000.0 if current == 0.0 else 0.0
    elif knob == "watchdog":
        params = dict(serve.get("params", {}))
        current = float(params.get("controller_update_timeout_ms", 0.0))
        params["controller_update_timeout_ms"] = (
            500.0 if current == 0.0 else 0.0
        )
        serve["params"] = params
    else:
        serve["seed"] = _seed32(rng)
    return out


def _perturb_compete(base: dict, rng: np.random.Generator) -> dict:
    out = copy.deepcopy(base)
    serve = out["serve"]
    knob = _pick(rng, ("requests", "rate", "strategies", "policy", "seed"))
    if knob == "requests":
        serve["requests"] = max(1, min(24, int(serve["requests"]) * 2))
    elif knob == "rate":
        serve["arrival_rate_per_s"] = round(
            float(serve["arrival_rate_per_s"]) * float(_pick(rng, (0.5, 2.0))), 1
        )
    elif knob == "strategies":
        out["strategies"] = list(_pick(rng, _COMPETE_STRATEGY_SETS))
    elif knob == "policy":
        serve["conflict_policy"] = _pick(rng, ("serialize", "merge"))
        serve["shed_policy"] = _pick(rng, ("reject", "park"))
    else:
        serve["seed"] = _seed32(rng)
    return out


def _perturb_divergence(base: dict, rng: np.random.Generator) -> dict:
    out = copy.deepcopy(base)
    knob = _pick(rng, ("seed", "pair", "congestion"))
    if knob == "seed":
        out["seed"] = _seed32(rng)
    elif knob == "pair":
        out["systems"] = list(_pick(rng, _SYSTEM_PAIRS))
    else:
        out["congestion_aware"] = not bool(out.get("congestion_aware", True))
    return out


def _fault_insert(base: dict, rng: np.random.Generator) -> dict:
    out = copy.deepcopy(base)
    if "campaign" in out:
        campaign = out["campaign"]
        extra = _random_topo_events(rng, str(campaign["topology"]),
                                    float(campaign["horizon_ms"]))
        if not extra:
            faults = list(campaign.get("message_faults", []))
            faults.extend(_random_message_faults(rng))
            campaign["message_faults"] = faults[:3]
        else:
            events = list(campaign.get("events", [])) + extra
            events.sort(key=lambda e: (float(e["time_ms"]), str(e["kind"])))
            campaign["events"] = events[:4]
    elif "serve" in out or "ops" in out:
        serve = out["serve"] if "serve" in out else out["ops"]["serve"]
        _, edges = topology_material(str(serve["topology"]))
        if edges:
            a, b = _pick(rng, edges)
            down = round(float(rng.uniform(50.0, 2000.0)), 1)
            events = list(serve.get("events", []))
            events.append({"time_ms": down, "kind": "link_down",
                           "node_a": a, "node_b": b})
            events.sort(key=lambda e: (float(e["time_ms"]), str(e["kind"])))
            serve["events"] = events[:4]
    return out


def mutate_case(
    base: FuzzCase,
    donor: Optional[FuzzCase],
    rng: np.random.Generator,
    index: int,
) -> FuzzCase:
    """One mutation step over a retained corpus case.

    ``donor`` feeds the cross-case strategies (splice, plan crossover)
    and must share ``base.kind``; pass None to restrict to the unary
    strategies.  Deterministic in the supplied ``rng`` state.
    """
    same_kind_donor = donor if donor is not None and donor.kind == base.kind else None
    ops: list[str] = ["knob-perturb"]
    if base.kind in ("chaos", "serve", "ops", "compete"):
        ops.append("fault-insert")
        if base.kind != "ops" and same_kind_donor is not None:
            ops.append("splice")
    if base.kind == "plan" and same_kind_donor is not None:
        ops.append("plan-crossover")
    op = _pick(rng, tuple(ops))

    payload: dict
    if op == "splice":
        assert same_kind_donor is not None
        if base.kind == "chaos":
            payload = _splice_chaos(base.payload, same_kind_donor.payload, rng)
        else:
            payload = _splice_serve(base.payload, same_kind_donor.payload, rng)
    elif op == "fault-insert":
        payload = _fault_insert(base.payload, rng)
    elif op == "plan-crossover":
        assert same_kind_donor is not None
        payload = copy.deepcopy(base.payload)
        donor_plans = same_kind_donor.payload.get("plans", [])
        if donor_plans:
            plans = list(payload.get("plans", []))
            plans.append(copy.deepcopy(donor_plans[-1]))
            payload["plans"] = plans[:3]
            payload["expect_kind"] = None
    else:  # knob-perturb
        perturb = {
            "chaos": _perturb_chaos,
            "serve": _perturb_serve,
            "plan": _perturb_plan,
            "divergence": _perturb_divergence,
            "ops": _perturb_ops,
            "compete": _perturb_compete,
        }[base.kind]
        payload = perturb(base.payload, rng)

    return FuzzCase(
        kind=base.kind,
        name=f"{base.kind}~{op}[{index}]",
        seed=base.seed,
        payload=payload,
    )
