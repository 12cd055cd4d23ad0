"""The experiment runner: one body for every system, one result type.

A run builds a fresh deployment, bootstraps the scenario's flows on
their old paths, triggers all updates at the same simulated instant,
runs to quiescence, and reports per-flow and total update times as the
paper measures them ("from the sending of UIM messages to the
receiving of UFM messages"; for multiple flows "the completion time of
the last flow update").  What differs per system is its row of
:data:`repro.algos.registry.SYSTEMS`, built by
:func:`~repro.algos.registry.build_system`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.algos.registry import SystemRow, build_system, system_row
from repro.harness.scenarios import UpdateScenario
from repro.obs.context import NULL_OBS, ObsContext
from repro.params import SimParams
from repro.sim.network import Network
from repro.sim.trace import KIND_RULE_CHANGE, Trace, TraceEvent


def experiment_row(name: str) -> SystemRow:
    """The row of system ``name``, refused when its ordering acts at
    dispatch: only the service orchestrator dispatches."""
    row = system_row(name)
    if row.orders_at_dispatch():
        raise ValueError(
            f"system {name!r} orders updates at dispatch; only run_service "
            "runs it"
        )
    return row


class RuleChanges:
    """Every rule change a trace records from now on, grouped by flow
    in trace order: the input of the §9.1 completion criterion.  A
    kinded subscriber, so attach it before the flows are installed."""

    def __init__(self, trace: Trace) -> None:
        self.by_flow: dict[object, list[TraceEvent]] = {}
        trace.subscribe(self, (KIND_RULE_CHANGE,))

    def __call__(self, event: TraceEvent) -> None:
        self.by_flow.setdefault(event.detail.get("flow"), []).append(event)

    def establishment_time(
        self, flow_id: int, target_path: list[str], initial_path: list[str]
    ) -> float:
        """Earliest instant from which every edge of ``target_path`` is
        installed (and stays installed) — "the whole ingress-to-egress
        flow path is established for the new rules" (§9.1).

        Replays the flow's rule changes; cleanup removals and superseded
        intermediate versions are handled naturally.  Returns 0.0 when
        the target was already in place at trigger time.
        """
        rules = dict(zip(initial_path, initial_path[1:]))
        wanted = dict(zip(target_path, target_path[1:])).items()
        establishment = 0.0 if wanted <= rules.items() else float("inf")
        for event in self.by_flow.get(flow_id, ()):
            next_hop = event.detail.get("next_hop")
            if next_hop is None:
                rules.pop(event.node, None)
            else:
                rules[event.node] = next_hop
            if not wanted <= rules.items():
                establishment = float("inf")
            elif establishment == float("inf"):
                establishment = event.time
        return establishment


def _uniform_completion_times(
    network: Network, changes: RuleChanges, scenario: UpdateScenario,
    params: SimParams,
) -> dict[int, float]:
    """The paper's completion criterion, applied identically to every
    system: a flow's update is complete when the whole new path is
    established (last rule change for the flow), recorded by a packet
    traversal (new-path propagation + per-hop pipeline) whose success
    is reported to the controller (egress' control-channel latency).

    Updates are triggered at simulated t=0, so the returned times are
    durations.  Flows whose rules never changed complete at trigger.
    """
    pipeline_ms = params.pipeline_delay.value
    per_flow: dict[int, float] = {}
    for flow in scenario.flows:
        new_path = flow.new_path or []
        established = changes.establishment_time(
            flow.flow_id, new_path, flow.old_path or []
        )
        traversal = sum(
            scenario.topology.latency(a, b) for a, b in zip(new_path, new_path[1:])
        ) + pipeline_ms * len(new_path)
        egress = new_path[-1] if new_path else flow.dst
        channel = network.control_channels.get(egress)
        report = channel.latency_ms if channel is not None else 0.0
        per_flow[flow.flow_id] = established + traversal + report
    return per_flow


@dataclass
class ExperimentResult:
    """Outcome of one update experiment."""

    system: str
    completed: bool
    total_update_time_ms: float
    per_flow_ms: dict[int, float] = field(default_factory=dict)
    prep_time_s: float = 0.0
    consistency_ok: bool = True
    violations: int = 0
    alarms: int = 0
    rounds: Optional[int] = None           # Central only

    def __post_init__(self) -> None:
        system_row(self.system)


def run_experiment(
    system: str,
    scenario: UpdateScenario,
    params: Optional[SimParams] = None,
    congestion_aware: bool = True,
    obs: Optional[ObsContext] = None,
) -> ExperimentResult:
    """Run one scenario under one system.

    Pass an enabled :class:`~repro.obs.context.ObsContext` to collect
    metrics and phase spans; the default no-op context adds no work to
    the hot path and leaves simulated time untouched.
    """
    obs = obs if obs is not None else NULL_OBS
    native = experiment_row(system).system()
    params = params if params is not None else SimParams()
    dep = build_system(system, scenario.topology, params=params, obs=obs)
    dep.set_congestion_aware(congestion_aware)
    changes = RuleChanges(dep.network.trace)
    for flow in scenario.flows:
        dep.install_flow(flow)

    with obs.spans.span(
        "experiment", system=system, topology=scenario.topology.name,
        flows=len(scenario.flows),
    ):
        started = time.perf_counter()  # repro: ignore[wall-clock] preparation is host-side work
        with obs.spans.span("preparation"):
            prepared = native.prepare(dep, scenario, congestion_aware)
        prep_time = time.perf_counter() - started  # repro: ignore[wall-clock] preparation is host-side work
        if native.trigger is not None:
            with obs.spans.span("uim_fanout"):
                native.trigger(dep, scenario, prepared)
        with obs.spans.span("run_to_quiescence"):
            dep.run()

        with obs.spans.span("analysis"):
            completed = dep.controller.all_updates_complete()
            per_flow = _uniform_completion_times(
                dep.network, changes, scenario, params
            )
            durations = list(per_flow.values())
    return ExperimentResult(
        system=system,
        completed=completed,
        total_update_time_ms=max(durations) if durations else float("nan"),
        per_flow_ms=per_flow,
        prep_time_s=prep_time,
        consistency_ok=dep.checker.ok,
        violations=len(dep.checker.violations),
        **native.result_extras(dep),
    )
