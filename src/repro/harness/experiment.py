"""The experiment runner: one body for every system, one result type.

A run builds a fresh deployment, bootstraps the scenario's flows on
their old paths, triggers all updates at the same simulated instant,
runs to quiescence, and reports per-flow and total update times as the
paper measures them ("from the sending of UIM messages to the
receiving of UFM messages"; for multiple flows "the completion time of
the last flow update").  What differs per system is its
:class:`~repro.harness.build.System` record; :data:`SYSTEM_TABLE` is
the only place a system name selects behaviour.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from repro.consistency import LiveChecker
from repro.core.messages import UpdateType
from repro.harness.baselines_build import CENTRAL, EZSEGWAY
from repro.harness.build import P4UPDATE, System
from repro.harness.scenarios import UpdateScenario
from repro.obs.context import NULL_OBS, ObsContext
from repro.params import SimParams
from repro.sim.network import Network
from repro.sim.trace import KIND_RULE_CHANGE, Trace, TraceEvent

#: Experiment system name -> (native system, the layer every update is
#: forced to; ``None`` leaves P4Update its §7.5 selection rule).
SYSTEM_TABLE: dict[str, tuple[System, Optional[UpdateType]]] = {
    "p4update": (P4UPDATE, None),
    "p4update-sl": (P4UPDATE, UpdateType.SINGLE),
    "p4update-dl": (P4UPDATE, UpdateType.DUAL),
    "ezsegway": (EZSEGWAY, None),
    "central": (CENTRAL, None),
}

SYSTEMS = tuple(SYSTEM_TABLE)


def resolve_system(name: str) -> tuple[System, Optional[UpdateType]]:
    try:
        return SYSTEM_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}") from None


def path_establishment_time(
    trace: Trace, flow_id: int, target_path: list[str], initial_path: list[str]
) -> float:
    """Earliest instant from which every edge of ``target_path`` is
    installed (and stays installed) — "the whole ingress-to-egress flow
    path is established for the new rules" (§9.1).

    Replays the flow's rule-change events; cleanup removals and
    superseded intermediate versions are handled naturally.  Returns
    0.0 when the target was already in place at trigger time.
    """
    changes = _rule_changes_by_flow(trace).get(flow_id, ())
    return _establishment(changes, target_path, initial_path)


def _rule_changes_by_flow(trace: Trace) -> dict[object, list[TraceEvent]]:
    """Every rule change in ``trace``, grouped by flow, in trace order."""
    changes: dict[object, list[TraceEvent]] = {}
    for event in trace.of_kind(KIND_RULE_CHANGE):
        changes.setdefault(event.detail.get("flow"), []).append(event)
    return changes


def _establishment(
    changes: Iterable[TraceEvent], target_path: list[str], initial_path: list[str]
) -> float:
    """:func:`path_establishment_time` over one flow's rule changes."""
    rules = dict(zip(initial_path, initial_path[1:]))
    wanted = dict(zip(target_path, target_path[1:])).items()
    establishment = 0.0 if wanted <= rules.items() else float("inf")
    for event in changes:
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
    network: Network, scenario: UpdateScenario, params: SimParams
) -> dict[int, float]:
    """The paper's completion criterion, applied identically to every
    system: a flow's update is complete when the whole new path is
    established (last rule change for the flow), recorded by a packet
    traversal (new-path propagation + per-hop pipeline) whose success
    is reported to the controller (egress' control-channel latency).

    Updates are triggered at simulated t=0, so the returned times are
    durations.  Flows whose rules never changed complete at trigger.
    The rule changes are grouped by flow in one pass over the trace.
    """
    pipeline_ms = params.pipeline_delay.value
    changes = _rule_changes_by_flow(network.trace)
    per_flow: dict[int, float] = {}
    for flow in scenario.flows:
        new_path = flow.new_path or []
        established = _establishment(
            changes.get(flow.flow_id, ()), new_path, flow.old_path or []
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
        resolve_system(self.system)


def run_experiment(
    system: str,
    scenario: UpdateScenario,
    params: Optional[SimParams] = None,
    congestion_aware: bool = True,
    check_consistency: bool = True,
    obs: Optional[ObsContext] = None,
) -> ExperimentResult:
    """Run one scenario under one system.

    Pass an enabled :class:`~repro.obs.context.ObsContext` to collect
    metrics and phase spans; the default no-op context adds no work to
    the hot path and leaves simulated time untouched.
    """
    obs = obs if obs is not None else NULL_OBS
    native, update_type = resolve_system(system)
    params = params if params is not None else SimParams()
    dep = native.build(scenario.topology, params=params, obs=obs)
    dep.set_congestion_aware(congestion_aware)
    checker = (
        LiveChecker(dep.forwarding_state, dep.network.trace)
        if check_consistency else None
    )
    for flow in scenario.flows:
        dep.install_flow(flow)

    with obs.spans.span(
        "experiment", system=system, topology=scenario.topology.name,
        flows=len(scenario.flows),
    ):
        started = time.perf_counter()  # repro: ignore[wall-clock] preparation is host-side work
        with obs.spans.span("preparation"):
            prepared = native.prepare(dep, scenario, congestion_aware, update_type)
        prep_time = time.perf_counter() - started  # repro: ignore[wall-clock] preparation is host-side work
        if native.trigger is not None:
            with obs.spans.span("uim_fanout"):
                native.trigger(dep, scenario, prepared)
        with obs.spans.span("run_to_quiescence"):
            dep.run()

        with obs.spans.span("analysis"):
            completed = dep.controller.all_updates_complete()
            per_flow = _uniform_completion_times(dep.network, scenario, params)
            durations = list(per_flow.values())
    return ExperimentResult(
        system=system,
        completed=completed,
        total_update_time_ms=max(durations) if durations else float("nan"),
        per_flow_ms=per_flow,
        prep_time_s=prep_time,
        consistency_ok=checker.ok if checker else True,
        violations=len(checker.violations) if checker else 0,
        **native.result_extras(dep),
    )


def run_many(
    system: str,
    scenario_factory: Callable[[int], UpdateScenario],
    params: SimParams,
    runs: int = 30,
    congestion_aware: bool = True,
) -> list[ExperimentResult]:
    """Repeat an experiment with per-run seeds (the paper's 30 runs).

    ``scenario_factory(seed)`` must build a fresh scenario per run —
    deployments cannot be reused across runs.
    """
    results = []
    for run in range(runs):
        scenario = scenario_factory(run)
        results.append(
            run_experiment(
                system, scenario,
                params=params.with_seed(params.seed * 10_000 + run),
                congestion_aware=congestion_aware,
            )
        )
    return results


@dataclass
class Comparison:
    """Paired multi-system measurement over common scenarios."""

    times: dict[str, list[float]]   # system -> update times
    skipped: int                    # scenarios where some system failed
    runs: int

    def mean(self, system: str) -> float:
        return float(np.mean(self.times[system]))

    def improvement(self, baseline: str, candidate: str) -> float:
        """Percent by which candidate beats baseline (paper style)."""
        base, cand = self.mean(baseline), self.mean(candidate)
        return (base - cand) / base * 100.0


def compare_systems(
    scenario_factory: Callable[[int], UpdateScenario],
    systems: tuple[str, ...],
    params: SimParams,
    runs: int = 30,
    congestion_aware: bool = True,
) -> Comparison:
    """Run every system on the *same* per-run scenario (paired design).

    Runs in which any system fails to converge are skipped and
    regenerated with the next seed — the analogue of the paper's
    "if the new flow paths are not feasible ... we repeat the traffic
    generation" applied to transition-level deadlocks (consistent
    congestion-free scheduling is NP-hard, §7.4; the heuristics are
    best-effort).
    """
    times: dict[str, list[float]] = {system: [] for system in systems}
    skipped = 0
    seed = 0
    collected = 0
    while collected < runs and seed < runs * 4:
        try:
            scenario = scenario_factory(seed)
        except RuntimeError:
            skipped += 1
            seed += 1
            continue
        run_times = {}
        all_ok = True
        for system in systems:
            result = run_experiment(
                system, scenario,
                params=params.with_seed(params.seed * 10_000 + seed),
                congestion_aware=congestion_aware,
            )
            if not result.completed:
                all_ok = False
                break
            run_times[system] = result.total_update_time_ms
        seed += 1
        if not all_ok:
            skipped += 1
            continue
        for system, value in run_times.items():
            times[system].append(value)
        collected += 1
    return Comparison(times=times, skipped=skipped, runs=collected)
