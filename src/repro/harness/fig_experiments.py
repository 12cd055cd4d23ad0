"""Runners for the paper's §4 demonstrations (Fig. 2 and Fig. 4) and
the Fig. 7 evaluation matrix.

* :func:`run_fig2` — the out-of-order-update scenario: configuration
  (c) is deployed while the control messages of (b) are still in
  flight; probe traffic at 125 pps / TTL 64 exposes the loop
  {v1, v2, v3} under ez-Segway and its absence under P4Update.
* :func:`run_fig4` — the fast-forward scenario: a simple update U3 is
  issued while the complex U2 is still ongoing; P4Update jumps ahead,
  ez-Segway serializes.
* :func:`fig7_sweep_spec` — the §9 scenario x topology matrix
  (:data:`repro.harness.scenarios.FIG7_SCENARIOS`), expressed as a
  :mod:`repro.sweep` fleet so the grid's cells run in parallel worker
  processes (``p4update-repro fig7 --workers N``); the experiment
  kind's aggregate pairs the systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.algos.registry import build_system, system_row
from repro.harness.experiment import RuleChanges
from repro.harness.probes import ProbeSource, duplicate_receives
from repro.harness.scenarios import (
    FIG7_SCENARIOS,
    FIG7_SYSTEMS,
    FastForwardScenario,
    InconsistentUpdateScenario,
)
from repro.params import SimParams
from repro.sim.faults import CompositeFaultModel, FaultAction, ScriptedFault
from repro.topo.synthetic import fig2_topology, six_node_topology
from repro.traffic.flows import Flow


@dataclass
class Fig2Result:
    """Per-system outcome of the §4.1 experiment."""

    system: str
    probes_sent: int
    received_at_v1: list
    duplicates_at_v1: dict          # seq -> times seen (loops!)
    delivered_at_v4: list
    ttl_losses: int
    loop_window_ms: float           # duration packets looped (0 = none)
    consistency_violations: int


def run_fig2(
    system: str,
    scenario: Optional[InconsistentUpdateScenario] = None,
    params: Optional[SimParams] = None,
) -> Fig2Result:
    """Run the inconsistent-update demonstration for one system.

    P4Update runs it single-layer by design, so ``p4update`` and
    ``p4update-sl`` are the same run and ``p4update-dl`` is rejected.
    """
    scenario = scenario if scenario is not None else InconsistentUpdateScenario()
    params = params if params is not None else SimParams()
    row = system_row(system)
    native = row.system()
    if native.push_blind is None or native.is_first_update is None:
        raise ValueError(f"fig2 supports p4update and ezsegway, not {system!r}")
    if row.forced_layer == "DUAL":
        raise ValueError("fig2 pins single-layer updates; it cannot run 'p4update-dl'")
    topo = fig2_topology()
    topo.set_controller(scenario.config_a[0])
    dep = build_system(system, topo, params=params)
    flow = Flow.between(
        scenario.config_a[0], scenario.config_a[-1], size=1.0,
        old_path=list(scenario.config_a),
    )
    source = ProbeSource(
        dep, flow.flow_id, flow.src,
        rate_pps=scenario.probe_rate_pps, ttl=scenario.probe_ttl,
    )
    dep.install_flow(flow)

    # Delay every control message of configuration (b): the controller
    # sent it, the network holds it, the controller is oblivious.
    dep.network.control_fault_model = CompositeFaultModel([
        ScriptedFault(
            matches=native.is_first_update,
            action=FaultAction.DELAY,
            extra_delay_ms=scenario.b_delay_ms,
        )
    ])

    source.start(at=1.0, stop_at=scenario.b_delay_ms + 700.0)
    # (b) then (c), back to back: (b)'s messages are delayed in flight
    # and the controller, believing (b) done, pushes (c) against the
    # believed state.
    native.push_blind(dep, flow.flow_id, list(scenario.config_b))
    native.push_blind(dep, flow.flow_id, list(scenario.config_c))
    dep.run(until=scenario.b_delay_ms + 1500.0)

    at_v1 = source.received.get("v1", [])
    dups = duplicate_receives(at_v1)
    dup_times = [o.time for o in at_v1 if o.seq in dups]
    loop_window = (max(dup_times) - min(dup_times)) if dup_times else 0.0
    return Fig2Result(
        system=system,
        probes_sent=source.sent,
        received_at_v1=at_v1,
        duplicates_at_v1=dups,
        delivered_at_v4=source.delivered,
        ttl_losses=len(source.ttl_losses),
        loop_window_ms=loop_window,
        consistency_violations=len(dep.checker.violations),
    )


# -- Fig. 7: the scenario x topology matrix as a sweep ---------------------------

def fig7_sweep_spec(scenario: str, runs: int = 15, seed: int = 0):
    """One Fig. 7 cell as a sweep spec: ``runs`` paired seeds across
    the four systems.  Single-flow cells use the paper's Dionysus-style
    exp(100) ms install delays (§9.1), exactly as the serial runner
    did."""
    from repro.sweep.spec import load_sweep_spec

    kind, topo_name = FIG7_SCENARIOS[scenario]
    return load_sweep_spec({
        "name": f"fig7{scenario}",
        "kind": "experiment",
        "seed": seed,
        "systems": list(FIG7_SYSTEMS),
        "topologies": [topo_name],
        "scenarios": [kind],
        "seeds": runs,
        "dionysus_install_delays": kind == "single",
        "description": f"Fig. 7({scenario}): {kind} flow(s) on {topo_name}",
    })


# -- Fig. 4 ----------------------------------------------------------------------


@dataclass
class Fig4Result:
    """Completion time of U3, measured from its issue instant."""

    system: str
    u3_completion_ms: float
    completed: bool
    consistency_violations: int


def run_fig4(
    system: str,
    scenario: Optional[FastForwardScenario] = None,
    params: Optional[SimParams] = None,
) -> Fig4Result:
    """Run the §4.2 two-consecutive-update scenario for one system.

    ``p4update-sl`` / ``p4update-dl`` force both updates to that layer;
    ``p4update`` leaves each to the §7.5 selection rule."""
    scenario = scenario if scenario is not None else FastForwardScenario()
    params = params if params is not None else SimParams()
    if system_row(system).system().push_blind is None:   # not in the §4 demonstrations
        raise ValueError(f"fig4 supports p4update and ezsegway, not {system!r}")
    topo = six_node_topology()
    topo.set_controller(scenario.initial[0])

    flow = Flow.between(
        scenario.initial[0], scenario.initial[-1], size=1.0,
        old_path=list(scenario.initial),
    )

    dep = build_system(system, topo, params=params)
    changes = RuleChanges(dep.network.trace)
    dep.install_flow(flow)
    dep.controller.update_flow(flow.flow_id, list(scenario.u2), dep.update_type)
    dep.network.engine.schedule(
        scenario.u3_delay_ms,
        lambda: dep.controller.update_flow(
            flow.flow_id, list(scenario.u3), dep.update_type
        ),
    )
    dep.run()
    established = changes.establishment_time(
        flow.flow_id, list(scenario.u3), list(scenario.initial)
    )
    return Fig4Result(
        system=system,
        u3_completion_ms=established - scenario.u3_delay_ms,
        completed=established != float("inf"),
        consistency_violations=len(dep.checker.violations),
    )
