"""Per-layer metrics of the perf ledger, derived from one traced repeat.

Times come from the span aggregates in ``spans.Recorder``; counts come
from counters the layers already keep (register reads/writes, switch
telemetry, the path cache, ``engine.processed_events``, the trace's
own length), read off the deployments that the spanned
``build_*_network`` / ``load_checkpoint`` calls returned.

``BENCHMARK.json`` declares the full list (name, unit, better); a
workload reports the subset that applies to it.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from typing import Any, Callable

from spans import ROOT_SPAN, Recorder

@functools.lru_cache(maxsize=None)
def contract() -> dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units, directions
    and bounds are declared."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def per_layer_units() -> dict[str, str]:
    return {m["name"]: m["unit"] for m in contract()["per_layer"]}


#: Layers reported as ``<layer>.self_share``.
_SHARE_LAYERS = (
    "sim.engine", "sim.network", "sim.trace", "consistency", "p4",
    "core.controller", "core.switch", "serve",
)


def count_calls(fn: Callable[[], Any], watched: dict[str, Any]) -> dict[str, int]:
    """Python-level calls made by ``fn()``, in total (key ``"*"``) and
    per watched function — an exact, host-independent operation count."""
    codes = {function.__code__: key for key, function in watched.items()}
    counts = dict.fromkeys(watched, 0)
    total = 0

    def profiler(frame: Any, event: str, _arg: Any) -> None:
        nonlocal total
        if event == "call":
            total += 1
            key = codes.get(frame.f_code)
            if key is not None:
                counts[key] += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    counts["*"] = total
    return counts


def deployment_counters(captured: list[Any]) -> dict[str, float]:
    """Sum the layers' own counters over the deployments a repeat built."""
    deployments: list[Any] = []
    for obj in captured:
        if hasattr(obj, "deployment"):
            # A session restored from a checkpoint continues (counters
            # included) the deployment built before the kill.
            deployments = [obj.deployment]
        else:
            deployments.append(obj)
    totals = dict.fromkeys(
        ("events", "records", "rule_changes", "packets", "reg_reads",
         "reg_writes", "path_hits", "path_misses"), 0.0,
    )
    topologies: dict[int, Any] = {}
    for deployment in deployments:
        network = deployment.network
        totals["events"] += network.engine.processed_events
        totals["records"] += len(network.trace) + network.trace.dropped_events
        totals["rule_changes"] += network.trace.count_of_kind("rule_change")
        topologies[id(deployment.topology)] = deployment.topology
        for switch in deployment.switches.values():
            totals["packets"] += getattr(switch, "packets_processed", 0)
            registers = getattr(getattr(switch, "program", None), "registers", None)
            if registers is None:
                continue
            for name in registers.names():
                totals["reg_reads"] += registers[name].reads
                totals["reg_writes"] += registers[name].writes
    for topology in topologies.values():
        stats = topology.path_cache_stats()
        totals["path_hits"] += stats["hits"]
        totals["path_misses"] += stats["misses"]
    return totals


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    workload: Any,
    recorder: Recorder,
    ops: int,
    untraced: dict[str, float],
    traced: dict[str, float],
    calls: dict[str, float],
    extras: dict[str, float],
) -> dict[str, float]:
    """The per-layer metrics that apply to ``workload``.

    ``untraced`` / ``traced`` carry the timing of one repeat each
    (``cpu_s`` is user CPU; ``untraced`` also its child's
    ``speed_factor``); ``calls`` the tenth-size call-count pass
    (``ops``, ``calls``, ``walks``); ``extras`` the metrics the
    workload measured itself (``Outcome.extras``, ``trace_extras``).
    """
    root_ms = recorder.total_ms(ROOT_SPAN)
    layer_ms = recorder.layer_self_ms()
    counters = deployment_counters(recorder.captured)

    def share(ms: float) -> float:
        return _ratio(ms, root_ms)

    out: dict[str, float] = {}
    for layer in _SHARE_LAYERS:
        out[f"{layer}.self_share"] = share(layer_ms.get(layer, 0.0))
    out["host.unattributed_share"] = share(layer_ms.get("unattributed", 0.0))
    busy_s = untraced["cpu_s"] + untraced["sys_s"]
    out["host.ops_per_wall_s"] = _ratio(ops, untraced["wall_s"])
    out["host.wall_over_cpu"] = _ratio(untraced["wall_s"], busy_s)
    out["host.sys_share"] = _ratio(untraced["sys_s"], busy_s)
    out["host.raw_ops_per_cpu_s"] = _ratio(ops, untraced["cpu_s"])
    out["host.speed_factor"] = untraced["speed_factor"]
    out["host.tracing_overhead_ratio"] = _ratio(traced["cpu_s"], untraced["cpu_s"])
    out["host.py_calls_per_op"] = _ratio(calls["calls"], calls["ops"])

    prepares = recorder.count_of("core.controller:P4UpdateController.prepare_update")
    out["core.controller.prepares_per_op"] = _ratio(prepares, ops)
    out["core.controller.prepare_us"] = 1000.0 * _ratio(
        recorder.total_ms("core.controller:P4UpdateController.prepare_update"),
        prepares,
    )

    if workload.has_violations:     # the workload runs the simulator
        out["sim.engine.events_per_op"] = _ratio(counters["events"], ops)
        out["sim.engine.events_per_cpu_s"] = _ratio(
            counters["events"], untraced["cpu_s"]
        )
        messages = recorder.count_of("sim.network:Network.transmit") + \
            recorder.count_of("sim.network:Network.transmit_control")
        out["sim.network.msgs_per_op"] = _ratio(messages, ops)
        out["sim.trace.records_per_op"] = _ratio(counters["records"], ops)
        out["consistency.us_per_rule_change"] = 1000.0 * _ratio(
            layer_ms.get("consistency", 0.0), counters["rule_changes"]
        )
        out["consistency.walks_per_op"] = _ratio(calls["walks"], calls["ops"])
        packets = recorder.count_of("p4:Pipeline.process")
        out["p4.packets_per_op"] = _ratio(packets, ops)
        out["p4.us_per_packet"] = 1000.0 * _ratio(
            recorder.total_ms("p4:Pipeline.process"), packets
        )
        out["p4.reg_reads_per_op"] = _ratio(counters["reg_reads"], ops)
        out["p4.reg_writes_per_op"] = _ratio(counters["reg_writes"], ops)
        lookups = counters["path_hits"] + counters["path_misses"]
        out["topo.path_lookups_per_op"] = _ratio(lookups, ops)
        out["topo.path_cache_hit_ratio"] = _ratio(counters["path_hits"], lookups)

    # The rest apply wherever the traced repeat went through the layer.
    if recorder.count_of("chaos:trace_signature"):
        out["chaos.signature_share"] = share(recorder.total_ms("chaos:trace_signature"))
    if recorder.count_of("sweep:run_sweep"):
        builds = sum(
            recorder.total_ms(f"harness:{fn}")
            for fn in ("build_p4update_network", "build_ezsegway_network",
                       "build_central_network")
        )
        fleet_ms = recorder.total_ms("sweep:run_sweep")
        out["harness.scenario_build_share"] = share(
            recorder.total_ms("harness:multi_flow_scenario")
        )
        out["harness.network_build_share"] = share(builds)
        out["harness.run_share"] = share(recorder.total_ms("sim.engine:Engine.run"))
        out["harness.analysis_share"] = share(recorder.self_ms("harness:run_experiment"))
        out["sweep.executor_overhead_share"] = _ratio(
            fleet_ms - recorder.total_ms("sweep:run_shard_payload"), fleet_ms
        )
        out["sweep.merge_ms"] = recorder.total_ms("sweep:build_sweep_results")
    writes = recorder.count_of("ops:write_checkpoint")
    if writes:
        write_ms = recorder.total_ms("ops:write_checkpoint")
        out["ops.checkpoint_write_share"] = share(write_ms)
        out["ops.checkpoint_write_ms"] = _ratio(write_ms, writes)
        out["ops.checkpoint_load_ms"] = recorder.total_ms("ops:load_checkpoint")
    out.update(extras)
    return out
