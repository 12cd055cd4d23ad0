"""Campaign declarations, the runner, determinism and zero-overhead."""

import json
import os

import numpy as np
import pytest

from repro.chaos.campaign import (
    FaultCampaign,
    MessageFaultSpec,
    SpecTopologyError,
    TopoEvent,
    load_campaign,
    load_campaign_file,
)
from repro.chaos.runner import build_campaign_deployment, campaign_params, run_campaign
from repro.harness.build import build_p4update_network
from repro.harness.scenarios import single_flow_scenario
from repro.obs.context import make_obs
from repro.sim.trace import trace_signature
from repro.topo.synthetic import fig1_topology


def acceptance_campaign(seed=42):
    """The issue's acceptance scenario: a mid-update link failure plus
    a switch crash/restart plus 20% UNM drop."""
    return FaultCampaign(
        name="acceptance",
        topology="fig1",
        seed=seed,
        horizon_ms=30_000.0,
        update_at_ms=10.0,
        reliable_control=True,
        unm_timeout_ms=200.0,
        controller_update_timeout_ms=2_000.0,
        events=(
            TopoEvent(time_ms=12.0, kind="link_down", node_a="v4", node_b="v2"),
            TopoEvent(time_ms=40.0, kind="switch_crash", node_a="v5"),
            TopoEvent(time_ms=400.0, kind="switch_restart", node_a="v5"),
        ),
        message_faults=(
            MessageFaultSpec(plane="data", drop_prob=0.2, scope="unm"),
        ),
    )


# -- declaration / JSON ------------------------------------------------------


def test_campaign_json_round_trip():
    campaign = acceptance_campaign()
    restored = load_campaign(json.loads(campaign.to_json()))
    assert restored == campaign


def test_unknown_event_kind_rejected():
    with pytest.raises(ValueError):
        TopoEvent(time_ms=0.0, kind="meteor_strike", node_a="v0")


@pytest.mark.parametrize("plane, scope", [("data", "uim"), ("control", "unm")])
def test_scope_of_the_other_plane_rejected(plane, scope, tmp_path, capsys):
    """A scope no message of the plane can match would fault nothing."""
    from repro.chaos.campaign import MESSAGE_SCOPES
    from repro.harness.cli import main

    with pytest.raises(ValueError, match=f"the {plane} plane") as raised:
        MessageFaultSpec(plane=plane, drop_prob=1.0, scope=scope)
    assert str(MESSAGE_SCOPES[plane]) in str(raised.value)
    fault = {"plane": plane, "drop_prob": 1.0, "scope": scope}
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"name": "mismatch", "message_faults": [fault]}))
    assert main(["chaos", "validate", str(path)]) == 1
    assert f"unknown scope {scope!r}" in capsys.readouterr().err


def test_link_event_needs_both_endpoints():
    with pytest.raises(ValueError):
        TopoEvent(time_ms=0.0, kind="link_down", node_a="v0")


def test_events_are_checked_against_nodes_and_links():
    from repro.chaos.campaign import (
        SpecTopologyError,
        validate_events_against_topology,
    )

    adjacent = TopoEvent(time_ms=1.0, kind="link_down", node_a="v4", node_b="v2")
    validate_events_against_topology((adjacent,), "fig1")
    # Direction does not matter, and a switch event needs no link.
    validate_events_against_topology(
        (
            TopoEvent(time_ms=1.0, kind="link_up", node_a="v2", node_b="v4"),
            TopoEvent(time_ms=2.0, kind="switch_crash", node_a="v5"),
        ),
        "fig1",
    )
    # Both nodes exist on b4 but no link joins them: set_link_state
    # would raise KeyError at time_ms, mid-run.
    apart = TopoEvent(
        time_ms=3.0, kind="link_down", node_a="atlanta-ga", node_b="dalles-or"
    )
    ghost = TopoEvent(time_ms=4.0, kind="switch_crash", node_a="ghost")
    with pytest.raises(SpecTopologyError) as excinfo:
        validate_events_against_topology((apart, ghost), "b4")
    assert excinfo.value.problems == [
        "events[0] (link_down at t=3): no link between "
        "'atlanta-ga' and 'dalles-or'",
        "events[1] (switch_crash at t=4): node_a='ghost' is not a node",
    ]


def test_corruptor_must_be_registered():
    with pytest.raises(ValueError):
        MessageFaultSpec(corrupt_prob=0.5, corruptor="gamma_rays")


@pytest.mark.parametrize(
    "text,problem",
    [("[1, 2]", "chaos campaign must be an object, got list"),
     ('{"name": ', "invalid JSON")],
)
def test_campaign_file_errors_name_the_file(tmp_path, text, problem):
    path = tmp_path / "campaign.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=problem) as excinfo:
        load_campaign_file(str(path))
    assert str(path) in str(excinfo.value)


def test_unknown_topology_rejected_by_runner():
    """The runner never sees one: building the campaign already fails."""
    with pytest.raises(SpecTopologyError, match="unknown topology"):
        FaultCampaign(name="x", topology="moebius")


# -- the acceptance criterion ------------------------------------------------


@pytest.mark.usefixtures("shadow_checker")     # link failure + switch crash
def test_acceptance_scenario_completes_consistently_and_deterministically():
    campaign = acceptance_campaign()
    first = run_campaign(campaign)
    second = run_campaign(campaign)
    assert first.completed, "every flow must complete or park"
    assert first.consistent, first.violations[:3]
    assert first.fault_counts["data"]["dropped"] > 0, "the 20% UNM drop must bite"
    assert first.trace_signature == second.trace_signature
    assert first.to_results() == second.to_results()


def test_smoke_example_agrees_with_reference_checker(shadow_checker):
    path = os.path.join(
        os.path.dirname(__file__), "..", "..", "examples", "chaos_smoke.json"
    )
    result = run_campaign(load_campaign_file(path))
    assert result.completed and result.consistent
    assert result.topo_events == 1, "the link failure (checker disarm) must run"
    assert len(shadow_checker) == 1


def test_different_seeds_diverge():
    a = run_campaign(acceptance_campaign(seed=1))
    b = run_campaign(acceptance_campaign(seed=2))
    assert a.trace_signature != b.trace_signature


@pytest.mark.parametrize("time_ms", [12.0, 3000.0])
@pytest.mark.parametrize(
    "link", sorted(tuple(sorted((e.a, e.b))) for e in fig1_topology().edges),
    ids="-".join,
)
def test_results_do_not_depend_on_obs(link, time_ms):
    """The smoke campaign with its link failure moved to each Fig. 1
    link, mid-update and after it: obs on and obs off report the same
    results, ``reroutes`` included.  (An ``update_aborted`` count is not
    a reroute count: recovery can abort without rerouting and reroute
    without aborting.)"""
    path = os.path.join(
        os.path.dirname(__file__), "..", "..", "examples", "chaos_smoke.json"
    )
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    doc["events"] = [
        {"time_ms": time_ms, "kind": "link_down", "node_a": link[0], "node_b": link[1]}
    ]
    campaign = load_campaign(doc)
    off = run_campaign(campaign)
    on = run_campaign(campaign, obs=make_obs())
    assert off.to_results() == on.to_results()


def test_parked_flow_reported_in_results():
    campaign = FaultCampaign(
        name="parked",
        topology="fig1",
        seed=0,
        horizon_ms=10_000.0,
        events=(
            # Cut every edge into v7: no alternate path can exist.
            TopoEvent(time_ms=5.0, kind="link_down", node_a="v2", node_b="v7"),
            TopoEvent(time_ms=5.0, kind="link_down", node_a="v6", node_b="v7"),
        ),
    )
    result = run_campaign(campaign)
    assert result.flows_parked == 1
    assert result.completed
    assert result.consistent, result.violations[:3]
    (report,) = result.parked_reports
    assert report["reason"] == "no alternate path"


# -- zero-overhead contract --------------------------------------------------


def test_empty_campaign_equals_plain_harness_run():
    """With every chaos feature disabled the runner must produce the
    exact trace a hand-built deployment produces."""
    campaign = FaultCampaign(
        name="plain", topology="fig1", seed=3, horizon_ms=20_000.0
    )
    via_runner = run_campaign(campaign)

    topo = fig1_topology()
    deployment = build_p4update_network(
        topo,
        params=campaign_params(campaign),
        rng=np.random.default_rng(campaign.seed),
    )
    scenario = single_flow_scenario(
        topo, rng=np.random.default_rng([campaign.seed, 0x5CE2])
    )
    for flow in scenario.flows:
        deployment.install_flow(flow)

    def trigger():
        for flow in scenario.flows:
            deployment.controller.update_flow(flow.flow_id, list(flow.new_path))

    deployment.network.engine.schedule_at(campaign.update_at_ms, trigger)
    deployment.run(until=campaign.horizon_ms)

    assert not deployment.network.chaos_enabled
    assert via_runner.trace_signature == trace_signature(deployment.network.trace)


def test_armed_chaos_without_events_changes_nothing():
    """enable_chaos() only arms bookkeeping; with no failures scheduled
    the trace must be bit-identical to an unarmed run."""
    campaign = FaultCampaign(
        name="armed", topology="fig1", seed=3, horizon_ms=20_000.0
    )

    def run(armed):
        deployment, _ = build_campaign_deployment(campaign)
        if armed:
            deployment.network.enable_chaos()
        deployment.run(until=campaign.horizon_ms)
        return trace_signature(deployment.network.trace)

    assert run(armed=False) == run(armed=True)


# -- manifest ----------------------------------------------------------------


def test_manifest_emission(tmp_path, capsys):
    from repro.harness.cli import main

    campaign = FaultCampaign(
        name="manifested", topology="fig1", seed=0, horizon_ms=20_000.0
    )
    spec = tmp_path / "campaign.json"
    spec.write_text(campaign.to_json())
    assert main([
        "chaos", "run", str(spec), "--runs", "1", "--manifest",
        "--out-dir", str(tmp_path), "--cache-dir", str(tmp_path / "cache"),
    ]) == 0
    capsys.readouterr()
    path = tmp_path / "BENCH_chaos_manifested.json"
    assert path.exists()
    payload = json.loads(path.read_text())
    result = run_campaign(campaign)
    assert payload["results"]["trace_signature"] == result.trace_signature
    assert payload["results"]["consistent"] is True
    assert payload["params"]["name"] == "manifested"
