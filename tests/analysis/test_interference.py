"""The static inter-plan interference analyzer.

Covers the three layers: footprint extraction, the composed
happens-before order, and the conflict detectors — plus the
end-to-end contracts on the committed example specs (zero false
positives on the smoke workload, a pinned findings signature on the
conflicting workload, worker-count-independent batch signatures).
"""

import json
import os

from repro.analysis.advgen import plan_from_paths
from repro.analysis.interference import (
    BatchPolicies,
    analyze_serve_spec,
    batch_from_serve_spec,
    build_happens_before,
    detect_interference,
    footprint_from_paths,
    footprint_of,
    pair_conflicts,
)
from repro.analysis.plan import plan_from_dict, plan_to_dict
from repro.serve.spec import load_serve_spec

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples")


def load_example(name):
    with open(os.path.join(EXAMPLES, name)) as handle:
        return load_serve_spec(json.load(handle))


# -- footprints ---------------------------------------------------------------


def test_footprint_edge_partition():
    fp = footprint_from_paths(7, ("a", "b", "c"), ("a", "d", "c"), 1.5)
    assert fp.enter_edges == {("a", "d"), ("d", "c")}
    assert fp.leave_edges == {("a", "b"), ("b", "c")}
    assert fp.stay_edges == set()
    assert fp.touched_edges == {
        ("a", "b"), ("b", "c"), ("a", "d"), ("d", "c")
    }


def test_footprint_stay_edges_carry_no_delta():
    fp = footprint_from_paths(7, ("a", "b", "c"), ("a", "b", "d"), 2.0)
    assert fp.stay_edges == {("a", "b")}
    deltas = fp.capacity_deltas()
    assert ("a", "b") not in deltas
    assert deltas[("b", "d")] == 2.0
    assert deltas[("b", "c")] == -2.0


def test_footprint_of_plan_matches_paths():
    plan = plan_from_paths(9, ("a", "b", "c"), ("a", "d", "c"),
                           flow_size=1.25, version=4)
    fp = footprint_of(plan)
    assert fp.flow_id == 9
    assert fp.version == 4
    assert fp.flow_size == 1.25
    assert fp.switches == {"a", "d", "c"}
    assert fp.version_slots == (("a", 9), ("c", 9), ("d", 9))
    assert fp.old_edges == (("a", "b"), ("b", "c"))
    assert fp.new_edges == (("a", "d"), ("d", "c"))


def test_footprint_survives_plan_dict_round_trip():
    plan = plan_from_paths(9, ("a", "b", "c"), ("a", "d", "c"),
                           flow_size=1.25, version=4)
    clone = plan_from_dict(plan_to_dict(plan))
    assert footprint_of(clone) == footprint_of(plan)


# -- happens-before -----------------------------------------------------------


def pair(flow_a=1, flow_b=2):
    return [
        plan_from_paths(flow_a, ("a", "b", "c"), ("a", "d", "c")),
        plan_from_paths(flow_b, ("a", "b", "c"), ("a", "e", "c")),
    ]


def test_hb_default_policies_leave_pairs_unordered():
    hb = build_happens_before(pair(), BatchPolicies())
    assert list(hb.unordered_plan_pairs()) == [(0, 1)]


def test_hb_same_flow_orders_by_batch_position():
    hb = build_happens_before(pair(3, 3), BatchPolicies(same_flow=True))
    assert (0, 1) in hb.plan_before
    assert hb.ordered(0, 1)
    assert list(hb.unordered_plan_pairs()) == []


def test_hb_shared_switch_orders_overlapping_plans():
    hb = build_happens_before(
        pair(), BatchPolicies(shared_switch=True)
    )
    assert (0, 1) in hb.plan_before


def test_hb_max_in_flight_one_is_a_total_order():
    plans = pair() + [plan_from_paths(5, ("x", "y"), ("x", "z"))]
    hb = build_happens_before(plans, BatchPolicies(max_in_flight=1))
    assert hb.plan_before >= {(0, 1), (1, 2), (0, 2)}


def test_hb_extra_order_is_transitively_closed():
    plans = pair() + [plan_from_paths(5, ("x", "y"), ("x", "z"))]
    hb = build_happens_before(
        plans, BatchPolicies(extra_order=((0, 1), (1, 2)))
    )
    assert (0, 2) in hb.plan_before


def test_hb_intra_plan_install_order_follows_distances():
    plan = plan_from_paths(1, ("a", "b", "c"), ("a", "d", "c"))
    hb = build_happens_before([plan])
    after = {(op.node, op.action): set() for op in hb.ops}
    for earlier, later in hb.op_edges:
        after[(earlier.node, earlier.action)].add((later.node, later.action))

    def reachable(op):
        seen, frontier = set(), [op]
        while frontier:
            for nxt in after[frontier.pop()] - seen:
                seen.add(nxt)
                frontier.append(nxt)
        return seen

    # Egress ("c", distance 0) installs strictly before ingress "a".
    assert ("a", "install") in reachable(("c", "install"))
    assert ("c", "install") not in reachable(("a", "install"))


# -- detectors ----------------------------------------------------------------


def kinds_of(report):
    return {finding.kind for finding in report.findings}


def test_same_flow_unordered_pair_is_a_slot_race():
    report = detect_interference(pair(3, 3), BatchPolicies())
    assert "version-slot-race" in kinds_of(report)
    finding = next(
        f for f in report.findings if f.kind == "version-slot-race"
    )
    assert finding.plans == (0, 1)
    assert finding.counterexample
    assert finding.suggested_order == ((0, 1),)


def test_same_flow_serialization_silences_the_race():
    report = detect_interference(
        pair(3, 3), BatchPolicies(same_flow=True)
    )
    assert report.ok


def test_merged_relation_cycle_is_a_transient_loop():
    plans = [
        plan_from_paths(3, ("i", "v", "e"), ("i", "u", "v", "e")),
        plan_from_paths(3, ("i", "u", "v", "e"), ("i", "v", "u", "e")),
    ]
    report = detect_interference(plans, BatchPolicies())
    assert "transient-loop" in kinds_of(report)


def test_shared_new_path_switch_is_a_transient_blackhole():
    plans = [
        plan_from_paths(3, ("i1", "e1"), ("i1", "m", "e1"), version=2),
        plan_from_paths(3, ("i2", "e2"), ("i2", "m", "e2"), version=3),
    ]
    report = detect_interference(plans, BatchPolicies())
    assert "transient-blackhole" in kinds_of(report)


def overcommit_batch():
    return [
        plan_from_paths(1, ("u", "v", "x"), ("u", "y", "x"),
                        flow_size=1.0),
        plan_from_paths(2, ("p", "q", "v"), ("p", "u", "v"),
                        flow_size=1.0),
    ]


def test_transient_overcommit_flagged_without_scheduler():
    report = detect_interference(
        overcommit_batch(), BatchPolicies(same_flow=True),
        capacities={("u", "v"): 1.5}, congestion_aware=False,
    )
    assert kinds_of(report) == {"link-overcommit"}
    finding = report.findings[0]
    assert finding.subject == "edge(u->v)"
    assert finding.flows == (1, 2)


def test_steady_state_overcommit_is_not_a_finding():
    # Final load 2.0 on (u, v) exceeds capacity in *every*
    # serialization: not an interleaving hazard.
    plans = [
        plan_from_paths(1, ("u", "x"), ("u", "v"), flow_size=1.0),
        plan_from_paths(2, ("p", "q", "v"), ("p", "u", "v"),
                        flow_size=1.0),
    ]
    report = detect_interference(
        plans, BatchPolicies(same_flow=True),
        capacities={("u", "v"): 1.5}, congestion_aware=False,
    )
    assert report.ok


def test_congestion_scheduler_absorbs_the_transient():
    # Same geometry as the overcommit case, but §7.4 makes the
    # enterer wait for the leaver: no finding, and no deadlock since
    # the leaver does not wait on anyone.
    report = detect_interference(
        overcommit_batch(), BatchPolicies(same_flow=True),
        capacities={("u", "v"): 1.5}, congestion_aware=True,
    )
    assert report.ok


def test_mutual_waits_are_a_cross_plan_deadlock():
    plans = [
        plan_from_paths(1, ("u", "v"), ("x", "y"), flow_size=1.0),
        plan_from_paths(2, ("x", "y"), ("u", "v"), flow_size=1.0),
    ]
    report = detect_interference(
        plans, BatchPolicies(same_flow=True),
        capacities={("u", "v"): 1.5, ("x", "y"): 1.5},
        congestion_aware=True,
    )
    assert "cross-plan-deadlock" in kinds_of(report)
    finding = next(
        f for f in report.findings if f.kind == "cross-plan-deadlock"
    )
    assert finding.plans == (0, 1)
    assert finding.suggested_order


# -- the gate-side pairwise check ---------------------------------------------


def test_pair_conflicts_same_flow():
    a = footprint_from_paths(5, ("a", "b"), ("a", "c"), 1.0)
    b = footprint_from_paths(5, ("a", "c"), ("a", "d"), 1.0)
    kinds = [c["kind"] for c in pair_conflicts(a, b)]
    assert kinds == ["version-slot-race"]


def test_pair_conflicts_transient_capacity():
    leaver = footprint_from_paths(1, ("u", "v", "x"), ("u", "y", "x"), 1.0)
    enterer = footprint_from_paths(2, ("p", "u"), ("p", "u", "v"), 1.0)
    conflicts = pair_conflicts(leaver, enterer, {("u", "v"): 1.5})
    assert [c["kind"] for c in conflicts] == ["link-overcommit"]
    assert conflicts[0]["worst_load"] == 2.0


def test_pair_conflicts_steady_state_excess_not_flagged():
    stay = footprint_from_paths(1, ("u", "v"), ("u", "v", "w"), 1.0)
    enterer = footprint_from_paths(2, ("p", "u"), ("p", "u", "v"), 1.0)
    assert pair_conflicts(stay, enterer, {("u", "v"): 1.5}) == []


def test_pair_conflicts_disjoint_footprints_clean():
    a = footprint_from_paths(1, ("a", "b"), ("a", "c"), 1.0)
    b = footprint_from_paths(2, ("x", "y"), ("x", "z"), 1.0)
    assert pair_conflicts(a, b, {("a", "c"): 1.1, ("x", "z"): 1.1}) == []


# -- committed example specs --------------------------------------------------


def test_serve_smoke_example_has_zero_findings():
    report = analyze_serve_spec(load_example("serve_smoke.json"))
    assert report.plan_count == 8
    assert report.findings == []


def test_serve_conflict_example_signature_pinned():
    with open(os.path.join(EXAMPLES, "serve_conflict.signature")) as fh:
        expected = fh.read().strip()
    spec = load_example("serve_conflict.json")
    first = analyze_serve_spec(spec)
    second = analyze_serve_spec(spec)
    assert kinds_of(first) == {"link-overcommit"}
    assert first.signature() == second.signature() == expected


def test_batch_from_serve_spec_respects_policies():
    spec = load_example("serve_smoke.json")
    plans, policies, capacities = batch_from_serve_spec(spec)
    assert len(plans) == spec.flows
    assert policies.same_flow
    assert policies.shared_switch == (spec.switch_conflict == "serialize")
    # Capacities cover both directions of every topology edge.
    for (a, b), cap in capacities.items():
        assert capacities[(b, a)] == cap


def test_interference_sweep_signature_worker_independent(tmp_path):
    from repro.sweep.executor import run_sweep
    from repro.sweep.merge import build_sweep_results
    from repro.sweep.spec import load_sweep_spec

    with open(os.path.join(EXAMPLES, "serve_conflict.json")) as fh:
        serve = json.load(fh)
    signatures = {}
    for workers in (1, 2):
        spec = load_sweep_spec({
            "name": "ifx",
            "kind": "interference",
            "serve": serve,
            "seeds": 2,
        })
        run = run_sweep(
            spec, workers=workers,
            cache_dir=str(tmp_path / f"cache{workers}"),
        )
        assert run.ok
        results = build_sweep_results(
            spec, run.shard_docs, run.failures, run.shards_total
        )
        signatures[workers] = results["signature"]
    assert signatures[1] == signatures[2]
