"""The harness's two sweep kinds (see :mod:`repro.sweep.kinds`).

* ``experiment`` — the paper-scale grid scenario x topology x seed x
  system, one ``run_experiment`` per shard.  The derived seed excludes
  the *system* axis: every system in one grid cell sees the identical
  workload (the paper's paired design).
* ``prep`` — the Fig. 8 control-plane preparation cost, one shard per
  topology.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Iterator, Optional

import numpy as np

from repro.harness.experiment import SYSTEMS, run_experiment
from repro.harness.prep import (
    DEFAULT_COUNT_UPDATES,
    DEFAULT_UPDATES,
    prep_operation_counts,
)
from repro.harness.scenarios import (
    UpdateScenario,
    multi_flow_scenario,
    single_flow_scenario,
)
from repro.obs.context import NULL_OBS
from repro.params import OVERRIDABLE_PARAMS, SimParams
from repro.sweep.kinds import ShardPlan, SweepKind
from repro.sweep.spec import SweepSpec, SweepSpecError, derive_shard_seed
from repro.topo import TOPOLOGIES

SCENARIO_KINDS = ("single", "multi")

#: Scenario-stream domain separator (distinct from the params seed use).
_SCENARIO_STREAM = 0x5CE2


def _check_names(noun: str, names: list, known: Any) -> None:
    for name in names:
        if name not in known:
            raise SweepSpecError(
                f"unknown {noun} {name!r}; known: {tuple(known)}"
            )


def seeded_scenario(topology: str, scenario: str, seed: int) -> UpdateScenario:
    """The ``single``/``multi`` workload a seeded shard runs on a named
    topology.  Raises ``RuntimeError`` when none is feasible (§9.1)."""
    rng = np.random.default_rng([seed, _SCENARIO_STREAM])
    build = single_flow_scenario if scenario == "single" else multi_flow_scenario
    return build(TOPOLOGIES[topology](), rng=rng)


# -- experiment ---------------------------------------------------------------


def _validate_experiment(spec: SweepSpec) -> None:
    body = spec.body
    _check_names("system", body["systems"], SYSTEMS)
    _check_names("topology", body["topologies"], TOPOLOGIES)
    _check_names("scenario", body["scenarios"], SCENARIO_KINDS)
    if not (body["systems"] and body["topologies"] and body["scenarios"]
            and body["seeds"]):
        raise SweepSpecError("experiment sweep has an empty axis")
    unknown = set(body["params"]) - OVERRIDABLE_PARAMS
    if unknown:
        raise SweepSpecError(
            f"non-overridable SimParams field(s) {sorted(unknown)}; "
            f"overridable: {sorted(OVERRIDABLE_PARAMS)}"
        )


def _expand_experiment(spec: SweepSpec) -> Iterator[ShardPlan]:
    body = spec.body
    grid = itertools.product(
        body["scenarios"], body["topologies"], body["seeds"], body["systems"]
    )
    for scenario, topology, seed_index, system in grid:
        key = {
            "scenario": scenario,
            "topology": topology,
            "seed_index": seed_index,
            "system": system,
        }
        seed = derive_shard_seed(spec.seed, scenario, topology, seed_index)
        payload = dict(
            key,
            seed=seed,
            congestion_aware=body["congestion_aware"],
            dionysus_install_delays=body["dionysus_install_delays"],
            params=dict(body["params"]),
        )
        yield key, seed, payload


def _run_experiment(payload: dict, obs: Optional[Any]) -> dict:
    seed = int(payload["seed"])
    try:
        scenario = seeded_scenario(
            payload["topology"], payload["scenario"], seed
        )
    except RuntimeError as exc:
        # Workload generation can legitimately fail (no feasible
        # near-capacity reroute, §9.1); same seed -> same failure, so
        # this is a deterministic *result*, not a shard crash.
        return {"completed": False, "scenario_error": str(exc), "flows": 0}

    params = dataclasses.replace(SimParams(seed=seed), **payload["params"])
    if payload["dionysus_install_delays"]:
        params = params.with_dionysus_install_delay()
    result = run_experiment(
        payload["system"],
        scenario,
        params=params,
        congestion_aware=bool(payload["congestion_aware"]),
        obs=obs if obs is not None else NULL_OBS,
    )
    return {
        "completed": result.completed,
        "consistency_ok": result.consistency_ok,
        "violations": result.violations,
        "alarms": result.alarms,
        "total_update_time_ms": result.total_update_time_ms,
        "per_flow_ms": {str(k): v for k, v in sorted(result.per_flow_ms.items())},
        "flows": len(scenario.flows),
        "scenario": scenario.description,
        # prep_time_s is host-side work -> wall-clock, keep it out of
        # the deterministic results subtree.
        "_wall": {"prep_time_s": result.prep_time_s},
    }


def aggregate_experiment(shard_docs: list[dict]) -> dict:
    """Per-cell statistics, paired across the system axis.

    A (scenario, topology, seed_index) group only contributes to the
    per-system timing statistics when *every* system in it completed —
    the paper's paired design; incomplete groups are counted in
    ``skipped_groups``.  Each cell lists its paired ``times`` in seed
    order, the samples ``repro fig7`` summarizes."""
    cells: dict[tuple, dict[tuple, dict]] = {}
    groups: dict[tuple, dict[tuple, dict]] = {}
    for doc in shard_docs:
        key = doc.get("key") or {}
        cell = (key.get("scenario"), key.get("topology"), key.get("system"))
        group = (key.get("scenario"), key.get("topology"), key.get("seed_index"))
        cells.setdefault(cell, {})[group] = doc["results"]
        groups.setdefault(group, {})[cell] = doc["results"]

    complete_groups = {
        group
        for group, by_cell in groups.items()
        if all(r.get("completed") for r in by_cell.values())
    }
    out: dict[str, Any] = {
        "groups_total": len(groups),
        "skipped_groups": len(groups) - len(complete_groups),
        "cells": {},
    }
    for cell in sorted(cells, key=lambda c: tuple(str(x) for x in c)):
        paired = sorted(
            (g for g in cells[cell] if g in complete_groups),
            key=lambda g: (str(g[0]), str(g[1]), int(g[2] or 0)),
        )
        times = [
            t for t in (
                cells[cell][group].get("total_update_time_ms")
                for group in paired
            )
            if t is not None
        ]
        docs = list(cells[cell].values())
        out["cells"]["/".join(str(x) for x in cell)] = {
            "shards": len(docs),
            "completed": sum(1 for r in docs if r.get("completed")),
            "violations": sum(int(r.get("violations", 0)) for r in docs),
            "paired_runs": len(times),
            "mean_update_ms": (sum(times) / len(times)) if times else None,
            "min_update_ms": min(times) if times else None,
            "max_update_ms": max(times) if times else None,
            "times": times,
        }
    return out


EXPERIMENT = SweepKind(
    name="experiment",
    fields={
        "systems": ["p4update"],
        "topologies": ["fig1"],
        "scenarios": ["single"],
        "seeds": [0],
        "congestion_aware": True,
        "dionysus_install_delays": False,
        "params": {},
    },
    validate=_validate_experiment,
    expand=_expand_experiment,
    run_shard=_run_experiment,
    aggregate=aggregate_experiment,
)


# -- prep ---------------------------------------------------------------------


def _validate_prep(spec: SweepSpec) -> None:
    body = spec.body
    _check_names("topology", body["topologies"], TOPOLOGIES)
    if not body["topologies"]:
        raise SweepSpecError("prep sweep has an empty topology axis")
    if body["updates"] < 1 or body["count_updates"] < 1:
        raise SweepSpecError(
            "prep sweep needs updates >= 1 and count_updates >= 1"
        )


def _expand_prep(spec: SweepSpec) -> Iterator[ShardPlan]:
    for topology in spec.body["topologies"]:
        seed = derive_shard_seed(spec.seed, "prep", topology, 0)
        payload = {
            "topology": topology,
            "updates": spec.body["updates"],
            "count_updates": spec.body["count_updates"],
            "seed": seed,
        }
        yield {"topology": topology}, seed, payload


def _run_prep(payload: dict, obs: Optional[Any]) -> dict:
    # Operation counts are deterministic work measures; any wall-clock
    # timings arrive under "_wall" and are quarantined by the worker.
    return prep_operation_counts(
        payload["topology"],
        updates=int(payload["updates"]),
        count_updates=int(payload["count_updates"]),
        seed=int(payload["seed"]),
    )


def aggregate_prep(shard_docs: list[dict]) -> dict:
    """Per-topology Fig. 8 operation-count ratios."""
    per_topology: dict[str, dict] = {}
    for doc in shard_docs:
        results = doc["results"]
        key = doc.get("key") or {}
        topology = str(key.get("topology") or results.get("topology"))
        per_topology[topology] = {
            name: results.get(name)
            for name in ("p4update_ops", "ez_ops", "ez_congestion_ops",
                         "ratio_a", "ratio_b")
        }
    return {"topologies": dict(sorted(per_topology.items()))}


PREP = SweepKind(
    name="prep",
    fields={
        "topologies": ["fig1"],
        "updates": DEFAULT_UPDATES,
        "count_updates": DEFAULT_COUNT_UPDATES,
    },
    validate=_validate_prep,
    expand=_expand_prep,
    run_shard=_run_prep,
    aggregate=aggregate_prep,
)
