"""Executes :class:`~repro.chaos.campaign.FaultCampaign` descriptions.

A campaign run is fully deterministic in its seed: the deployment, the
workload, every fault model and every topology event derive their
randomness from ``campaign.seed``, and the trace's
:meth:`~repro.sim.trace.Trace.signature` hashes the complete event
trace (block by block as it is recorded; the run keeps no rows) so two
runs can be compared bit-for-bit.

The runner asserts the paper's §5 invariants throughout via the
deployment's :class:`~repro.consistency.checker.LiveChecker`
(failure-aware: a physically broken flow is disarmed, see the checker's
docstring) and reports completions, parked flows, fault/retry/recovery
activity and the trace signature in a :class:`CampaignResult`
(``repro chaos run --manifest`` writes it as a ``BENCH_``-style
manifest).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.algos.registry import build_system
from repro.chaos.campaign import (
    CORRUPTORS,
    FaultCampaign,
    MessageFaultSpec,
    TopoEvent,
    scope_selector,
)
from repro.core.messages import UpdateType
from repro.harness.build import Deployment
from repro.harness.scenarios import UpdateScenario, seeded_scenario
from repro.obs.context import ObsContext
from repro.params import SimParams
from repro.sim.faults import CompositeFaultModel, FaultModel, FaultPolicy
# Re-exported: the perf ledger wraps the format-v2 signature by this
# module's name; everything else imports it from repro.sim.trace.
from repro.sim.trace import trace_signature  # noqa: F401
# Re-exported: the perf ledger's workloads and the serve tests import
# the topology table from here.
from repro.topo import TOPOLOGIES  # noqa: F401

UPDATE_TYPES = {
    "auto": None,
    "single": UpdateType.SINGLE,
    "dual": UpdateType.DUAL,
}


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    campaign: str
    seed: int
    flows_total: int
    flows_completed: int
    flows_parked: int
    parked_reports: list[dict]
    violations: list[dict]
    trace_signature: str
    sim_time_ms: float
    events_processed: int
    fault_counts: dict[str, dict[str, int]] = field(default_factory=dict)
    retransmissions: int = 0
    retry_exhausted: int = 0
    reroutes: int = 0
    topo_events: int = 0

    @property
    def consistent(self) -> bool:
        return not self.violations

    @property
    def completed(self) -> bool:
        """Every flow either completed or is parked with a report."""
        return self.flows_completed + self.flows_parked >= self.flows_total

    def to_results(self) -> dict:
        return {
            "flows_total": self.flows_total,
            "flows_completed": self.flows_completed,
            "flows_parked": self.flows_parked,
            "parked_reports": self.parked_reports,
            "violations": self.violations,
            "consistent": self.consistent,
            "completed": self.completed,
            "trace_signature": self.trace_signature,
            "sim_time_ms": self.sim_time_ms,
            "events_processed": self.events_processed,
            "fault_counts": self.fault_counts,
            "retransmissions": self.retransmissions,
            "retry_exhausted": self.retry_exhausted,
            "reroutes": self.reroutes,
            "topo_events": self.topo_events,
        }


def build_fault_policy(
    specs: list[MessageFaultSpec], seed: int, plane_index: int
) -> Optional[FaultPolicy]:
    """Seeded fault models for one plane; composed when several."""
    models: list[FaultPolicy] = []
    for i, spec in enumerate(specs):
        rng = np.random.default_rng([seed, 0xFA017, plane_index, i])
        models.append(
            FaultModel(
                rng=rng,
                drop_prob=spec.drop_prob,
                delay_prob=spec.delay_prob,
                delay_ms=spec.delay_ms,
                duplicate_prob=spec.duplicate_prob,
                corrupt_prob=spec.corrupt_prob,
                corruptor=CORRUPTORS.get(spec.corruptor),
                selector=scope_selector(spec.scope),
            )
        )
    if not models:
        return None
    if len(models) == 1:
        return models[0]
    return CompositeFaultModel(models)


def campaign_params(campaign: FaultCampaign) -> SimParams:
    return SimParams(
        seed=campaign.seed,
        reliable_control=campaign.reliable_control,
        controller_update_timeout_ms=campaign.controller_update_timeout_ms,
        crash_preserves_state=campaign.crash_preserves_state,
        max_sim_time_ms=campaign.horizon_ms,
    )


def build_campaign_deployment(
    campaign: FaultCampaign, obs: Optional[ObsContext] = None
) -> tuple[Deployment, UpdateScenario]:
    """Construct the deployment (its checker included) and workload for
    a campaign, with its fault models installed and its topology events
    and update trigger scheduled: only
    ``deployment.run(until=campaign.horizon_ms)`` is left
    (:func:`run_campaign` does that and reduces the outcome)."""
    scenario = seeded_scenario(campaign.topology, campaign.scenario, campaign.seed)
    deployment = build_system(
        "p4update", scenario.topology, params=campaign_params(campaign), obs=obs
    )
    for flow in scenario.flows:
        deployment.install_flow(flow)
    if campaign.unm_timeout_ms > 0:
        for switch in deployment.switches.values():
            switch.unm_timeout_ms = campaign.unm_timeout_ms

    network = deployment.network
    network.fault_model = build_fault_policy(
        [s for s in campaign.message_faults if s.plane == "data"], campaign.seed, 0
    )
    network.control_fault_model = build_fault_policy(
        [s for s in campaign.message_faults if s.plane == "control"],
        campaign.seed, 1,
    )
    schedule_topo_events(deployment, campaign.events)
    network.engine.schedule_at(
        campaign.update_at_ms,
        _trigger_updates,
        deployment,
        scenario,
        UPDATE_TYPES[campaign.update_type],
    )
    return deployment, scenario


def apply_topo_event(deployment: Deployment, event: TopoEvent) -> None:
    """Apply one scheduled topology event (the engine callback every
    chaos-capable runner — campaigns, serve, ops — schedules)."""
    network = deployment.network
    if event.kind == "link_down":
        network.set_link_state(event.node_a, event.node_b, up=False)
    elif event.kind == "link_up":
        network.set_link_state(event.node_a, event.node_b, up=True)
    elif event.kind == "switch_crash":
        preserve = event.preserve_state
        if preserve is None:
            preserve = deployment.params.crash_preserves_state
        network.crash_switch(event.node_a, preserve_state=preserve)
    elif event.kind == "switch_restart":
        network.restart_switch(event.node_a)
    elif event.kind == "controller_down":
        network.set_controller_outage(True)
    elif event.kind == "controller_up":
        network.set_controller_outage(False)


def schedule_topo_events(
    deployment: Deployment, events: tuple[TopoEvent, ...]
) -> None:
    """Schedule ``events`` on the deployment's engine.  In-flight
    tracking is armed first, before any message is sent, so a link
    failure can lose messages already on the wire."""
    if not events:
        return
    deployment.network.enable_chaos()
    for event in events:
        deployment.network.engine.schedule_at(
            event.time_ms, apply_topo_event, deployment, event
        )


def _trigger_updates(
    deployment: Deployment,
    scenario: UpdateScenario,
    update_type: Optional[UpdateType],
) -> None:
    for flow in scenario.flows:
        if flow.new_path is None:
            continue
        record = deployment.controller.flow_db.get(flow.flow_id)
        if record is not None and record.parked:
            continue  # already parked by an earlier failure
        deployment.controller.update_flow(
            flow.flow_id, list(flow.new_path), update_type
        )


def run_campaign(
    campaign: FaultCampaign, obs: Optional[ObsContext] = None
) -> CampaignResult:
    """Execute one seeded campaign run end-to-end."""
    deployment, scenario = build_campaign_deployment(campaign, obs=obs)
    network = deployment.network
    network.trace.stream()
    deployment.run(until=campaign.horizon_ms)

    controller = deployment.controller
    flows_completed = sum(
        1
        for flow in scenario.flows
        if controller.update_complete(flow.flow_id)
        and not controller.flow_db[flow.flow_id].parked
    )
    flows_parked = sum(
        1 for flow in scenario.flows if controller.flow_db[flow.flow_id].parked
    )
    fault_counts = {
        plane: _fault_counts(model)
        for plane, model in (
            ("data", network.fault_model),
            ("control", network.control_fault_model),
        )
        if model is not None
    }
    return CampaignResult(
        campaign=campaign.name,
        seed=campaign.seed,
        flows_total=len(scenario.flows),
        flows_completed=flows_completed,
        flows_parked=flows_parked,
        parked_reports=[report.to_dict() for report in controller.parked],
        violations=[v.to_dict() for v in deployment.checker.violations],
        trace_signature=network.trace.signature(),
        sim_time_ms=network.engine.now,
        events_processed=network.engine.processed_events,
        fault_counts=fault_counts,
        retransmissions=(
            controller.reliable.retransmissions
            if controller.reliable is not None
            else 0
        ),
        retry_exhausted=(
            controller.reliable.exhausted if controller.reliable is not None else 0
        ),
        reroutes=controller.reroutes,
        topo_events=len(campaign.events),
    )


def _fault_counts(model: FaultPolicy) -> dict[str, int]:
    if isinstance(model, CompositeFaultModel):
        totals = {"dropped": 0, "corrupted": 0, "duplicated": 0, "delayed": 0}
        for member in model.faults:
            for key, value in _fault_counts(member).items():
                totals[key] += value
        return totals
    return {
        "dropped": int(getattr(model, "dropped", 0)),
        "corrupted": int(getattr(model, "corrupted", 0)),
        "duplicated": int(getattr(model, "duplicated", 0)),
        "delayed": int(getattr(model, "delayed", 0)),
    }
