"""Static update-plan verification: hand-built bad plans + real ones."""

import numpy as np
import pytest

from repro.analysis.plan import (
    PlanInstall,
    PlanVerificationError,
    UpdatePlan,
    plan_from_prepared,
    verify_plan,
)
from repro.core.messages import UpdateType
from repro.harness.build import build_p4update_network
from repro.harness.scenarios import single_flow_scenario
from repro.params import SimParams
from repro.topo import b4_topology, fig1_topology
from repro.topo.synthetic import FIG1_NEW_PATH, FIG1_OLD_PATH
from repro.traffic.flows import Flow


def chain_plan(nodes, version=2, prior=1, update_type=UpdateType.SINGLE,
               overrides=None):
    """A well-formed linear plan over ``nodes`` (egress first)."""
    overrides = overrides or {}
    installs = []
    for distance, node in enumerate(nodes):
        kwargs = dict(
            node=node, version=version, distance=distance,
            is_flow_egress=(distance == 0),
            is_ingress=(distance == len(nodes) - 1),
        )
        kwargs.update(overrides.get(node, {}))
        installs.append(PlanInstall(**kwargs))
    edges = tuple((nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1))
    return UpdatePlan(
        flow_id=1, version=version, prior_version=prior,
        update_type=update_type, installs=tuple(installs),
        notify_edges=edges,
    )


def kinds(report):
    return [v.kind for v in report.violations]


def test_well_formed_chain_passes():
    report = verify_plan(chain_plan(["d", "c", "b", "a"]))
    assert report.ok, report.describe()


def test_dependency_cycle_detected_with_counterexample():
    plan = chain_plan(["d", "c", "b", "a"])
    plan.dependencies = (("c", "b"), ("b", "c"))
    report = verify_plan(plan)
    assert "dependency-cycle" in kinds(report)
    cycle = report.counterexample
    assert cycle[0] == cycle[-1]
    assert set(cycle) <= {"b", "c"}


def test_notify_ring_is_a_cycle():
    plan = chain_plan(["d", "c", "b", "a"])
    # close the notification chain back onto the egress: a ring
    plan.notify_edges = plan.notify_edges + (("a", "d"),)
    report = verify_plan(plan)
    assert "dependency-cycle" in kinds(report)


def test_version_regression():
    report = verify_plan(chain_plan(["b", "a"], version=1, prior=1))
    assert "version-regression" in kinds(report)
    report = verify_plan(chain_plan(["b", "a"], version=1, prior=5))
    assert "version-regression" in kinds(report)


def test_mixed_versions():
    plan = chain_plan(["c", "b", "a"])
    stale = PlanInstall("b", version=1, distance=1)
    plan.installs = (plan.installs[0], stale, plan.installs[2])
    report = verify_plan(plan)
    assert "mixed-version" in kinds(report)


def test_no_originator():
    plan = chain_plan(["c", "b", "a"], overrides={"c": {"is_flow_egress": False}})
    report = verify_plan(plan)
    assert "no-originator" in kinds(report)


def test_two_flow_egresses():
    plan = chain_plan(["c", "b", "a"], overrides={"b": {"is_flow_egress": True}})
    report = verify_plan(plan)
    assert "egress-count" in kinds(report)


def test_missing_ack_edge():
    plan = chain_plan(["c", "b", "a"])
    # drop the edge that would trigger a: no in-edge, not an originator
    plan.notify_edges = plan.notify_edges[:-1]
    report = verify_plan(plan)
    assert "missing-ack" in kinds(report)


def test_orphan_install_counterexample():
    plan = chain_plan(["c", "b", "a"])
    # b and a notify each other but nothing connects them to the
    # originator c: unreachable island
    plan.notify_edges = (("b", "a"),)
    report = verify_plan(plan)
    assert "missing-ack" in kinds(report)      # b has no in-edge
    assert "orphan-install" in kinds(report)   # a is fed only from the island
    orphan = next(v for v in report.violations if v.kind == "orphan-install")
    assert orphan.counterexample[-1] == "a"


def test_duplicate_install():
    plan = chain_plan(["b", "a"])
    plan.installs = plan.installs + (PlanInstall("a", version=2, distance=1),)
    report = verify_plan(plan)
    assert "duplicate-install" in kinds(report)


def test_unknown_node_in_edge():
    plan = chain_plan(["b", "a"])
    plan.notify_edges = plan.notify_edges + (("a", "ghost"),)
    report = verify_plan(plan)
    assert "unknown-node" in kinds(report)


def test_distance_gap():
    plan = chain_plan(["c", "b", "a"])
    far = PlanInstall("a", version=2, distance=5, is_ingress=True)
    plan.installs = plan.installs[:2] + (far,)
    report = verify_plan(plan)
    assert "distance-gap" in kinds(report)


# -- plans lifted from the real controller ---------------------------------------


def _prepared_fig1(update_type):
    deployment = build_p4update_network(
        fig1_topology(), params=SimParams(seed=0)
    )
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    deployment.install_flow(flow)
    record = deployment.controller.flow_db[flow.flow_id]
    prior = record.version
    prepared = deployment.controller.prepare_update(
        flow.flow_id, list(FIG1_NEW_PATH), update_type
    )
    return deployment, flow, prepared, prior


@pytest.mark.parametrize("update_type", [UpdateType.SINGLE, UpdateType.DUAL])
def test_prepared_fig1_plan_verifies(update_type):
    _, _, prepared, prior = _prepared_fig1(update_type)
    plan = plan_from_prepared(
        prepared, prior_version=prior, new_path=FIG1_NEW_PATH
    )
    report = verify_plan(plan)
    assert report.ok, report.describe()
    assert len(plan.installs) == len(FIG1_NEW_PATH)


def test_prepared_compact_plan_expands_piggybacks():
    deployment = build_p4update_network(
        fig1_topology(), params=SimParams(seed=0)
    )
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    deployment.install_flow(flow)
    prior = deployment.controller.flow_db[flow.flow_id].version
    prepared = deployment.controller.compact_update(
        flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL
    )
    deployment.run()
    plan = plan_from_prepared(prepared, prior_version=prior)
    assert len(plan.installs) == len(FIG1_NEW_PATH)
    report = verify_plan(plan)
    assert report.ok, report.describe()


def test_scenario_plans_verify_on_b4():
    topo = b4_topology()
    scenario = single_flow_scenario(topo, np.random.default_rng(0))
    deployment = build_p4update_network(topo, params=SimParams(seed=0))
    for flow in scenario.flows:
        deployment.install_flow(flow)
    for flow in scenario.flows:
        prior = deployment.controller.flow_db[flow.flow_id].version
        prepared = deployment.controller.prepare_update(
            flow.flow_id, list(flow.new_path)
        )
        report = verify_plan(plan_from_prepared(prepared, prior_version=prior))
        assert report.ok, report.describe()


def test_seeded_cyclic_plan_rejected():
    from repro.analysis.cli import seeded_cyclic_plan

    report = verify_plan(seeded_cyclic_plan())
    assert not report.ok
    assert "dependency-cycle" in kinds(report)
    assert report.counterexample  # concrete path printed by the CLI


# -- the controller gate ----------------------------------------------------------


def _gated_fig1():
    deployment = build_p4update_network(
        fig1_topology(), params=SimParams(seed=0, verify_update_plans=True)
    )
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    deployment.install_flow(flow)
    return deployment, flow


def test_gate_passes_valid_update_end_to_end():
    deployment, flow = _gated_fig1()
    deployment.controller.update_flow(
        flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL
    )
    deployment.run()
    assert deployment.controller.update_complete(flow.flow_id)


def test_gate_rejects_stale_version_and_rolls_back():
    import dataclasses

    deployment, flow = _gated_fig1()
    record = deployment.controller.flow_db[flow.flow_id]
    prepared = deployment.controller.prepare_update(
        flow.flow_id, list(FIG1_NEW_PATH)
    )
    stale_uims = tuple(
        u._replace(version=record.version) for u in prepared.uims
    )
    stale = dataclasses.replace(
        prepared, version=record.version, uims=stale_uims
    )
    with pytest.raises(PlanVerificationError) as excinfo:
        deployment.controller.push_update(stale)
    assert "version-regression" in str(excinfo.value)
    # the stale version's prepared entry is dropped
    assert (flow.flow_id, record.version) not in deployment.controller._prepared


def test_gate_off_by_default():
    deployment = build_p4update_network(
        fig1_topology(), params=SimParams(seed=0)
    )
    assert deployment.params.verify_update_plans is False


def test_tree_plans_rejected_by_lifting():
    import dataclasses

    _, _, prepared, prior = _prepared_fig1(UpdateType.SINGLE)
    tree_uims = tuple(
        u._replace(child_ports=(1, 2)) for u in prepared.uims
    )
    tree = dataclasses.replace(prepared, uims=tree_uims)
    with pytest.raises(ValueError):
        plan_from_prepared(tree, prior_version=prior)
