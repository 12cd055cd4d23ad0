"""The ``ops`` lane: a :class:`~repro.ops.spec.SessionSpec` operations
session — background serve churn overlaid with a randomised timeline
of drain/undrain/migrate/rebalance operations — run as a full
:func:`~repro.ops.session.run_session`.  The oracle is the live
checker, the record invariants audit and the move state machine's
no-stranded-flows property (a flow a drain or migration left in limbo
is always a bug, whatever the topology did meanwhile).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

import numpy as np

from repro.fuzz.gen import pick, seed32
from repro.fuzz.lanes import FuzzLane, serve_body
from repro.fuzz.oracles import OracleVerdict
from repro.fuzz.shrink import list_drops, reset
from repro.obs.context import make_obs
from repro.ops.session import run_session
from repro.ops.spec import load_session_spec
from repro.topo import topology_shape


def _generate(rng: np.random.Generator) -> dict:
    topology = pick(rng, serve_body.TOPOLOGIES)
    nodes, _ = topology_shape(topology)
    horizon_ms = 20000.0
    # Tight capacity here means rolling moves transiting hot links
    # really overload them.
    congestion_aware, link_capacity = serve_body.draw_capacity(rng)
    serve = {
        **serve_body.draw_workload(rng, topology, (3, 8), (6, 20), 200.0),
        "congestion_aware": congestion_aware,
        "link_capacity": link_capacity,
        "horizon_ms": horizon_ms,
    }
    if rng.random() < 0.5:
        # The §11 controller watchdog: updates stuck on a failed link
        # re-trigger instead of hanging until the horizon.
        serve["params"] = {"controller_update_timeout_ms": 500.0}
    serve["events"] = serve_body.draw_link_flap(
        rng, topology, 0.4, (500.0, horizon_ms / 3.0), (500.0, 5000.0)
    )
    tenants = int(rng.integers(2, 5))
    timeline: list[dict] = []
    for _ in range(int(rng.integers(1, 4))):
        at_ms = round(float(rng.uniform(500.0, horizon_ms * 0.6)), 1)
        op = pick(rng, ("drain_switch", "migrate_tenant", "rebalance"))
        if op == "drain_switch":
            switch = pick(rng, nodes)
            timeline.append({"at_ms": at_ms, "op": "drain_switch",
                             "switch": switch})
            if rng.random() < 0.7:
                timeline.append(
                    {"at_ms": round(at_ms + float(rng.uniform(1000.0, 6000.0)), 1),
                     "op": "undrain_switch", "switch": switch}
                )
        elif op == "migrate_tenant":
            entry: dict[str, Any] = {
                "at_ms": at_ms,
                "op": "migrate_tenant",
                "tenant": int(rng.integers(0, tenants)),
            }
            if rng.random() < 0.3:
                entry["avoid"] = [pick(rng, nodes)]
            timeline.append(entry)
        else:
            timeline.append({"at_ms": at_ms, "op": "rebalance",
                             "max_moves": int(rng.integers(1, 5))})
    timeline.sort(key=lambda e: (float(e["at_ms"]), str(e["op"])))
    ops: dict[str, Any] = {
        "name": f"fuzz-{seed32(rng)}",
        "serve": serve,
        "tenants": tenants,
        "timeline": timeline,
        # Checkpoint ticks are scheduled even without a sink, so this
        # knob exercises the event-sequence-parity path too.
        "checkpoint_every_ms": float(pick(rng, (0.0, 5000.0))),
    }
    return {"ops": ops}


def _perturb(out: dict, donor: Optional[dict], rng: np.random.Generator) -> None:
    ops = out["ops"]
    serve = ops["serve"]
    knob = pick(rng, ("requests", "rate", "checkpoint", "watchdog", "seed"))
    if knob == "checkpoint":
        current = float(ops.get("checkpoint_every_ms", 0.0))
        ops["checkpoint_every_ms"] = 5000.0 if current == 0.0 else 0.0
    elif knob == "watchdog":
        params = dict(serve.get("params", {}))
        current = float(params.get("controller_update_timeout_ms", 0.0))
        params["controller_update_timeout_ms"] = 500.0 if current == 0.0 else 0.0
        serve["params"] = params
    else:
        serve_body.perturb_workload_knob(serve, knob, rng)


def _shrink_candidates(payload: dict) -> Iterator[dict]:
    yield from list_drops(payload, ["ops", "timeline"])
    yield from serve_body.shrink_candidates_at(
        payload, ["ops", "serve"],
        lane_resets=reset(payload, ["ops"], "checkpoint_every_ms", 0.0),
    )


def _oracle(payload: dict) -> OracleVerdict:
    obs = make_obs()
    result = run_session(load_session_spec(dict(payload["ops"])), obs=obs)
    summary = result.ops_summary()
    coverage: list[str] = []
    for family, counts in (
        ("op", summary["ops_by_status"]), ("move", summary["moves_by_outcome"])
    ):
        coverage.extend(
            f"ops:{family}:{label}" for label, count in sorted(counts.items()) if count
        )
    if not summary["drains_clean"]:
        coverage.append("ops:drain-dirty")
    # A move whose install completed but whose flow record never
    # converged: the one outcome that is a bug by definition.
    stranded = ["ops:stranded"] if summary["moves_by_outcome"].get("stranded") else []
    return serve_body.service_verdict(
        "ops", result, obs,
        extra_kinds=stranded, extra_coverage=coverage, extra_detail={"ops": summary},
    )


OPS = FuzzLane(
    name="ops",
    generate=_generate,
    mutations=(
        ("knob-perturb", _perturb, False),
        serve_body.fault_insert_at("ops", "serve"),
    ),
    shrink_candidates=_shrink_candidates,
    oracle=_oracle,
)
