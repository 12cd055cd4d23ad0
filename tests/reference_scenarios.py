"""The reference scenarios, and their pin.

Delivery, the switch agent and, with an enabled ``obs`` passed in, the
``messages_*`` counts are held to ``pinned_scenarios.json``
(``tests/sim/test_network_single_describe.py``); metrics and causal
tracing to the digests and the ``reference_causal.py`` swap of
``tests/obs/test_obs_reference.py``.  What one pipeline pass must do is
the spec of ``tests/core/alg_spec.py``, checked over an enumerated
domain by ``tests/core/test_pipeline_spec.py``.  Every scenario takes
an optional ``obs``.

Each scenario builds its deployment from scratch, runs it to the end and
returns everything a rewrite of the agent or of delivery could disturb:
the trace event by event, every written register cell and flow index of
every switch, the switches' alarms and counters, and what the controller
concluded.  Between them the scenarios reach forced SL and forced DL
service sessions, a closed loop under link flaps with a controller
outage that buffers and re-enqueues and a switch that loses its
registers, an open loop whose outage parks two reports that recovery
must replay in arrival order, message faults of every kind on both
planes (both registered corruptors), a link cut under messages on the
wire, a 2PC update (``stage_tag``), compact piggybacked updates and a
destination tree.

``pinned_scenarios.json`` holds, per scenario, the format-v2 trace
signature, one digest of every other key of the outcome and one of the
``messages_*`` rows of a run with ``make_obs()``, recorded while the
shipped bodies agreed with the forks of delivery, of the metrics
registry and of the switch agent's full-row reads that the pin replaced.  Re-record only for a deliberate behaviour change::

    PYTHONPATH=src python tests/reference_scenarios.py
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import marshal
import pathlib
from typing import Any, Callable

from repro.chaos.campaign import load_campaign
from repro.chaos.runner import _fault_counts, build_campaign_deployment
from repro.core.desttree import DestinationTreeManager
from repro.core.messages import UpdateType
from repro.harness.build import Deployment, build_p4update_network
from repro.obs.context import NULL_OBS, ObsContext, make_obs
from repro.params import DelayDistribution, SimParams
from repro.serve.service import ServiceSession, run_service
from repro.serve.spec import load_serve_spec
from repro.sim.trace import trace_signature
from repro.topo.graph import Topology
from repro.topo.synthetic import (
    FIG1_NEW_PATH,
    FIG1_OLD_PATH,
    fig1_topology,
    ring_topology,
)
from repro.traffic.flows import Flow


def capture(deployment: Deployment, **extra: Any) -> dict[str, Any]:
    """Everything a rewrite of the agent or of delivery could disturb."""
    controller = deployment.controller
    switches = {}
    for name, switch in sorted(deployment.switches.items()):
        program = switch.program
        switches[name] = {
            "registers": {
                register: dict(array._cells)
                for register, array in program.registers.items()
                if array._cells
            },
            "flow_index": dict(program.flow_index._index),
            "alarms": list(switch.alarms),
            "stats": dict(program.stats),
            "installs_completed": switch.installs_completed,
            "packets": (switch.packets_processed, switch.packets_dropped,
                        switch.resubmissions),
        }
    return {
        "trace": list(deployment.network.trace),
        "switches": switches,
        "controller_alarms": list(controller.alarms),
        "flow_db": {
            flow_id: (record.version, tuple(record.current_path), record.parked)
            for flow_id, record in sorted(controller.flow_db.items())
        },
        "sim_time_ms": deployment.network.engine.now,
        "events_processed": deployment.network.engine.processed_events,
        **extra,
    }


# -- served sessions -----------------------------------------------------------

_SERVE = {
    "name": "reference", "topology": "b4", "seed": 1, "flows": 10,
    "requests": 60, "horizon_ms": 15000.0, "mode": "open",
    "arrival_rate_per_s": 20.0,
    "params": {"controller_update_timeout_ms": 500.0},
}

#: Link flaps on links that carry seed-1 flows, a controller outage that
#: starts with reports on the wire, and a switch that power-cycles.
_CHAOS_EVENTS = [
    {"time_ms": 1500.0, "kind": "link_down",
     "node_a": "lenoir-nc", "node_b": "dublin-ie"},
    {"time_ms": 1900.0, "kind": "link_up",
     "node_a": "lenoir-nc", "node_b": "dublin-ie"},
    {"time_ms": 2232.0, "kind": "controller_down"},
    {"time_ms": 2532.0, "kind": "controller_up"},
    {"time_ms": 3300.0, "kind": "switch_crash", "node_a": "council-ia"},
    {"time_ms": 3800.0, "kind": "switch_restart", "node_a": "council-ia"},
    {"time_ms": 4500.0, "kind": "link_down",
     "node_a": "lenoir-nc", "node_b": "dublin-ie"},
    {"time_ms": 4900.0, "kind": "link_up",
     "node_a": "lenoir-nc", "node_b": "dublin-ie"},
]


def _served(obs: ObsContext = NULL_OBS, **fields: Any) -> dict[str, Any]:
    session = ServiceSession(load_serve_spec({**_SERVE, **fields}), obs)
    network = session.deployment.network
    buffered: list[int] = []
    for event in session.spec.topo_events():
        if event.kind == "controller_up":
            # Just before recovery: how many reports the outage parked.
            network.engine.schedule_at(
                event.time_ms - 1e-6,
                lambda: buffered.append(len(network._outage_buffer)),
            )
    session.wire()
    session.run()
    result = session.close()
    return capture(
        session.deployment, signature=result.signature(),
        trace_sig=result.trace_sig, buffered=buffered,
    )


def serve_forced_sl(obs: ObsContext = NULL_OBS) -> dict[str, Any]:
    return _served(obs, strategy="p4update-sl")


def serve_forced_dl(obs: ObsContext = NULL_OBS) -> dict[str, Any]:
    return _served(obs, strategy="p4update-dl")


#: The closed loop under link flaps, a controller outage and a crash.
_CHAOS_CLOSED = {
    "mode": "closed", "clients": 6, "think_time_ms": 20.0, "flows": 16,
    "requests": 120, "queue_depth": 8, "shed_policy": "reject",
    "conflict_policy": "serialize", "events": _CHAOS_EVENTS,
    "horizon_ms": 8000.0,
}


def serve_chaos_closed(obs: ObsContext = NULL_OBS) -> dict[str, Any]:
    return _served(obs, **_CHAOS_CLOSED)


def serve_outage_replay(obs: ObsContext = NULL_OBS) -> dict[str, Any]:
    """The open loop with a 100 ms controller outage that parks two
    completion reports (``buffered == [2]``): the order recovery replays
    them in is the order the controller serves them."""
    return _served(obs, events=[
        {"time_ms": 1152.0, "kind": "controller_down"},
        {"time_ms": 1252.0, "kind": "controller_up"},
    ])


def _baseline_served(strategy: str, fields: dict[str, Any], obs: ObsContext) -> dict[str, Any]:
    """An obs-only run: a baseline switch has no ``program`` for
    :func:`capture` to read, so only the result signature comes back."""
    spec = load_serve_spec({**_SERVE, **fields, "strategy": strategy})
    return {"signature": run_service(spec, obs=obs).signature()}


#: The open loop (with a queue short enough to shed, parking under
#: ez-Segway and rejecting under Central) and the chaos loop under the
#: two baselines, for the metrics and causal suite only
#: (``tests/obs/test_obs_reference.py``).
BASELINE_SCENARIOS: dict[str, Callable[[ObsContext], dict[str, Any]]] = {
    f"serve_{strategy}_{mode}": functools.partial(_baseline_served, strategy, fields)
    for strategy, shed_policy in (("ezsegway", "park"), ("central", "reject"))
    for mode, fields in (
        ("open", {"queue_depth": 2, "shed_policy": shed_policy}),
        ("chaos_closed", _CHAOS_CLOSED),
    )
}


# -- message faults and a link cut (chaos campaigns) -----------------------------


def _campaign(document: dict[str, Any], obs: ObsContext = NULL_OBS) -> dict[str, Any]:
    """``repro.chaos.runner.run_campaign`` up to the horizon, keeping
    the deployment instead of reducing it to a result."""
    campaign = load_campaign(document)
    deployment, _scenario = build_campaign_deployment(campaign, obs)
    deployment.run(until=campaign.horizon_ms)
    network = deployment.network
    faults = {
        "data": _fault_counts(network.fault_model),
        "control": _fault_counts(network.control_fault_model),
    }
    return capture(deployment, faults=faults)


def _faulty(corruptor: str, seed: int, obs: ObsContext = NULL_OBS) -> dict[str, Any]:
    fault = {
        "drop_prob": 0.05, "duplicate_prob": 0.1, "delay_prob": 0.1,
        "delay_ms": 7.0, "corrupt_prob": 0.1, "corruptor": corruptor,
    }
    return _campaign({
        "name": f"faulty-{corruptor}", "topology": "b4", "scenario": "multi",
        "seed": seed, "horizon_ms": 6000.0, "update_type": "auto",
        "reliable_control": True, "unm_timeout_ms": 200.0,
        "controller_update_timeout_ms": 1500.0,
        "message_faults": [
            {"plane": "data", **fault}, {"plane": "control", **fault},
        ],
    }, obs)


def faults_distance_skew(obs: ObsContext = NULL_OBS) -> dict[str, Any]:
    return _faulty("unm_distance_skew", seed=3, obs=obs)


def faults_version_rewind(obs: ObsContext = NULL_OBS) -> dict[str, Any]:
    return _faulty("unm_version_rewind", seed=4, obs=obs)


def link_cut_in_flight(obs: ObsContext = NULL_OBS) -> dict[str, Any]:
    """``examples/chaos_smoke.json`` with the cut moved under a UNM:
    v4 sends one to v3 at 36.3 ms (20 ms links), the link fails at 40."""
    return _campaign({
        "name": "cut", "topology": "fig1", "scenario": "single", "seed": 7,
        "horizon_ms": 20000.0, "update_at_ms": 10.0, "update_type": "dual",
        "reliable_control": True, "unm_timeout_ms": 200.0,
        "controller_update_timeout_ms": 2000.0,
        "events": [
            {"time_ms": 40.0, "kind": "link_down", "node_a": "v4", "node_b": "v3"},
            {"time_ms": 400.0, "kind": "link_up", "node_a": "v4", "node_b": "v3"},
        ],
        "message_faults": [{"plane": "data", "drop_prob": 0.1, "scope": "unm"}],
    }, obs)


# -- §11 extensions on hand-built deployments -----------------------------------------


def _fast_params() -> SimParams:
    return SimParams(
        seed=0,
        pipeline_delay=DelayDistribution.constant(0.1),
        rule_install_delay=DelayDistribution.uniform(0.5, 2.0),
        controller_service=DelayDistribution.constant(0.2),
        controller_background_util=0.0,
        unm_generation_delay=DelayDistribution.exponential(0.5),
    )


def _ring(old_path: list[str], obs: ObsContext = NULL_OBS) -> tuple[Deployment, Flow]:
    topo = ring_topology(8, latency_ms=1.0)
    topo.set_controller("n0")
    deployment = build_p4update_network(topo, params=_fast_params(), obs=obs)
    flow = Flow.between(old_path[0], old_path[-1], size=1.0, old_path=old_path)
    deployment.install_flow(flow)
    return deployment, flow


def two_phase_commit(obs: ObsContext = NULL_OBS) -> dict[str, Any]:
    deployment, flow = _ring(["n0", "n1", "n2", "n3"], obs)
    deployment.controller.two_phase_update(
        flow.flow_id, ["n0", "n7", "n6", "n5", "n4", "n3"]
    )
    deployment.run()
    return capture(deployment)


def compact_piggyback(obs: ObsContext = NULL_OBS) -> dict[str, Any]:
    """A compact SL update on the ring, then a compact DL update of
    Fig. 1 (UIMs to v7, v4 and v2 only) on a second deployment."""
    ring, flow = _ring(["n0", "n1", "n2", "n3"], obs)
    ring.controller.compact_update(
        flow.flow_id, ["n0", "n7", "n6", "n5", "n4", "n3"], UpdateType.SINGLE
    )
    ring.run()
    fig1 = build_p4update_network(fig1_topology(), params=_fast_params(), obs=obs)
    flow = Flow.between("v0", "v7", size=1.0, old_path=list(FIG1_OLD_PATH))
    fig1.install_flow(flow)
    fig1.controller.compact_update(flow.flow_id, list(FIG1_NEW_PATH), UpdateType.DUAL)
    fig1.run()
    return {"ring": capture(ring), "fig1": capture(fig1),
            "trace": list(ring.network.trace) + list(fig1.network.trace)}


def destination_tree(obs: ObsContext = NULL_OBS) -> dict[str, Any]:
    topo = Topology("star")
    for node in ("dst", "m1", "m2", "l1", "l2"):
        topo.add_node(node)
    for a, b in (("dst", "m1"), ("dst", "m2"), ("m1", "l1"),
                 ("m2", "l2"), ("m1", "l2"), ("m2", "l1")):
        topo.add_edge(a, b, latency_ms=1.0)
    topo.set_controller("dst")
    deployment = build_p4update_network(topo, params=_fast_params(), obs=obs)
    manager = DestinationTreeManager(deployment.controller)
    manager.install_tree(
        "dst", {"m1": "dst", "m2": "dst", "l1": "m1", "l2": "m2"},
        size=1.0, deployment=deployment,
    )
    manager.update_tree("dst", {"m1": "dst", "m2": "dst", "l1": "m2", "l2": "m1"})
    deployment.run()
    return capture(deployment, complete=manager.update_complete("dst"))


SCENARIOS: dict[str, Callable[..., dict[str, Any]]] = {
    scenario.__name__: scenario
    for scenario in (
        serve_forced_sl, serve_forced_dl, serve_chaos_closed, serve_outage_replay,
        faults_distance_skew, faults_version_rewind, link_cut_in_flight,
        two_phase_commit, compact_piggyback, destination_tree,
    )
}


@functools.lru_cache(maxsize=None)
def stock_outcome(name: str) -> dict[str, Any]:
    """The scenario on the shipped code, run once for every suite."""
    return SCENARIOS[name]()


# -- the pin -------------------------------------------------------------------

PINNED_PATH = pathlib.Path(__file__).with_name("pinned_scenarios.json")

MESSAGE_METRICS = (
    "messages_sent", "messages_received", "messages_dropped", "messages_lost_to_failure",
)

_SCALARS = (type(None), bool, int, float, str)


def _canonical(value: Any, where: str) -> Any:
    """``value`` as builtin scalars, lists and tuples only: a dict becomes
    its key-sorted item tuple, a named tuple a plain one and a dataclass
    its class name followed by its fields.  ``marshal`` writes the type
    of every node, so a tuple stays distinct from a list and an int from
    a float."""
    kind = type(value)
    if kind in _SCALARS:
        return value
    if kind is list:
        return [_canonical(item, where) for item in value]
    if isinstance(value, tuple):
        return tuple(_canonical(item, where) for item in value)
    if kind is dict:
        return tuple(sorted(
            (_canonical(key, where), _canonical(item, where))
            for key, item in value.items()
        ))
    if dataclasses.is_dataclass(kind):
        return (kind.__name__, *(
            _canonical(getattr(value, field.name), where)
            for field in dataclasses.fields(value)
        ))
    raise TypeError(f"{where}: a {kind.__name__} has no canonical form")


def _digest(value: Any) -> str:
    return hashlib.sha256(marshal.dumps(value, 2)).hexdigest()


def outcome_pin(name: str, outcome: dict[str, Any]) -> dict[str, str]:
    """The format-v2 signature of ``outcome``'s trace and one digest of
    every other key :func:`capture` (and the scenario) returned."""
    rest = tuple(
        (key, _canonical(value, f"scenario {name!r}, key {key!r}"))
        for key, value in sorted(outcome.items()) if key != "trace"
    )
    return {"trace": trace_signature(outcome["trace"]), "state": _digest(rest)}


def message_rows(obs: ObsContext) -> list[tuple[str, dict, Any]]:
    """The ``messages_*`` rows of ``obs``, in registry order."""
    return [
        (name, labels, cell.value)
        for name, labels, cell in obs.metrics if name in MESSAGE_METRICS
    ]


def messages_pin(name: str, rows: list[tuple[str, dict, Any]]) -> str:
    return _digest(_canonical(rows, f"scenario {name!r}, messages"))


def record(name: str) -> dict[str, str]:
    """What ``pinned_scenarios.json`` holds for one scenario."""
    viewed = make_obs()
    SCENARIOS[name](viewed)
    return {
        **outcome_pin(name, stock_outcome(name)),
        "messages": messages_pin(name, message_rows(viewed)),
    }


if __name__ == "__main__":
    PINNED_PATH.write_text(json.dumps(
        {name: record(name) for name in sorted(SCENARIOS)}, indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {PINNED_PATH}")
