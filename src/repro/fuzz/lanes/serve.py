"""The ``serve`` lane: a :class:`~repro.serve.spec.ServeSpec` workload
with randomised admission, orchestration and capacity knobs, run as a
full :func:`~repro.serve.service.run_service`.  The oracle is the live
checker's violations plus the service's ``invariants_ok`` record audit.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.fuzz.gen import pick
from repro.fuzz.lanes import FuzzLane, serve_body
from repro.fuzz.oracles import OracleVerdict
from repro.obs.context import make_obs
from repro.serve.service import run_service
from repro.serve.spec import load_serve_spec


def _generate(rng: np.random.Generator) -> dict:
    topology = pick(rng, serve_body.TOPOLOGIES)
    congestion_aware, link_capacity = serve_body.draw_capacity(rng)
    events = serve_body.draw_link_flap(
        rng, topology, 0.4, (50.0, 2000.0), (100.0, 2000.0)
    )
    serve = {
        **serve_body.draw_workload(rng, topology, (2, 8), (4, 24), 400.0),
        "mean_flow_size": round(float(rng.uniform(0.5, 2.0)), 2),
        "queue_depth": int(rng.integers(2, 16)),
        "shed_policy": pick(rng, ("reject", "park")),
        "conflict_policy": pick(rng, ("serialize", "merge")),
        "max_in_flight": int(rng.integers(0, 5)),
        "static_interference": pick(rng, ("off", "warn", "serialize", "reject")),
        "congestion_aware": congestion_aware,
        "link_capacity": link_capacity,
        "horizon_ms": 60000.0,
        "events": events,
    }
    return {"serve": serve}



def _perturb(out: dict, donor: Optional[dict], rng: np.random.Generator) -> None:
    serve = out["serve"]
    knob = pick(rng, ("requests", "rate", "queue", "capacity", "policy", "seed"))
    if knob == "queue":
        serve["queue_depth"] = max(1, int(serve["queue_depth"]) // 2)
    elif knob == "capacity":
        serve["congestion_aware"] = not bool(serve.get("congestion_aware", True))
        if not serve["congestion_aware"] and not float(serve.get("link_capacity", 0.0)):
            serve["link_capacity"] = round(float(rng.uniform(1.0, 4.0)), 2)
    elif knob == "policy":
        serve["conflict_policy"] = pick(rng, ("serialize", "merge"))
        serve["static_interference"] = pick(rng, ("off", "warn", "serialize", "reject"))
    else:
        serve_body.perturb_workload_knob(serve, knob, rng)


def _shrink_candidates(payload: dict) -> Iterator[dict]:
    return serve_body.shrink_candidates_at(payload, ["serve"])


def _oracle(payload: dict) -> OracleVerdict:
    obs = make_obs()
    result = run_service(load_serve_spec(dict(payload["serve"])), obs=obs)
    return serve_body.service_verdict(
        "serve", result, obs,
        extra_coverage=[
            f"serve:gate:{event.get('action')}" for event in result.interference
        ],
    )


SERVE = FuzzLane(
    name="serve",
    generate=_generate,
    mutations=(
        ("knob-perturb", _perturb, False),
        serve_body.fault_insert_at("serve"),
        serve_body.splice_at("serve"),
    ),
    shrink_candidates=_shrink_candidates,
    oracle=_oracle,
)
