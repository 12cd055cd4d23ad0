"""The ``serve`` sweep kind: one serve spec as seeded service replicas.

Also home of the pieces every kind embedding a serve spec shares
(``interference`` analyses the same seeded workloads statically,
``compete`` fans them across strategies): validation, the replica
expansion, the seed-overridden replica run and the throughput /
attribution merges.  See :mod:`repro.sweep.kinds` for the record.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.obs.causal import summarize_attribution
from repro.serve.service import run_service
from repro.serve.spec import ServeSpec, ServeSpecError, load_serve_spec
from repro.sweep.kinds import ShardPlan, SweepKind
from repro.sweep.merge import fleet_summary
from repro.sweep.spec import (
    SweepSpec,
    load_sweep_spec,
    replica_shards,
    validate_replicas,
)

#: Body fields of a kind that replicates one embedded serve spec.
SERVE_FIELDS = {"serve": None, "seeds": [0]}


def serve_sweep(
    spec: ServeSpec, seeds: int, kind: str = "serve", obs: bool = False,
    **axes: Any,
) -> SweepSpec:
    """``spec`` as a ``kind`` sweep over ``seeds`` seeded replicas."""
    return load_sweep_spec(
        {
            "name": spec.name,
            "kind": kind,
            "seed": spec.seed,
            "description": spec.description,
            "seeds": seeds,
            "serve": spec.to_dict(),
            "obs": obs,
            **axes,
        }
    )


def validate_serve(spec: SweepSpec) -> None:
    validate_replicas(spec, "serve", load_serve_spec, ServeSpecError)


def serve_shards(
    spec: SweepSpec, tag: str, axis: Optional[tuple[str, str]] = None
) -> Iterator[ShardPlan]:
    """Seeded replicas of ``spec.body["serve"]`` (see
    :func:`repro.sweep.spec.replica_shards`)."""
    topology = spec.body["serve"].get("topology", "b4")
    return replica_shards(spec, "serve", tag, "serve", topology, axis)


def seeded_serve_spec(payload: dict, **overrides: Any) -> ServeSpec:
    """The payload's serve spec with the derived shard seed replacing
    its own — one spec, many seeded replicas."""
    return load_serve_spec(
        dict(payload["serve"], seed=int(payload["seed"]), **overrides)
    )


def _run_shard(payload: dict, obs: Optional[Any]) -> dict:
    return run_service(seeded_serve_spec(payload), obs=obs).to_results()


def mean_throughput(shard_docs: list[dict]) -> float:
    values = [
        float(d["results"].get("throughput_per_s", 0.0)) for d in shard_docs
    ]
    return sum(values) / len(values) if values else 0.0


def merged_attribution(shard_docs: list[dict]) -> Optional[dict]:
    """Fleet-merged critical-path attribution (causal-traced runs):
    nearest-rank percentiles recomputed over the concatenated
    per-request rows, so the summary is worker-count independent and
    resumes cleanly from the shard cache, exactly like profiles."""
    rows: list[dict] = []
    for doc in shard_docs:
        rows.extend((doc["results"].get("attribution") or {}).get("rows") or [])
    return summarize_attribution(rows) if rows else None


def aggregate_serve(shard_docs: list[dict]) -> dict:
    """Fleet view of seeded service replicas."""
    return dict(
        fleet_summary(shard_docs),
        mean_throughput_per_s=mean_throughput(shard_docs),
        attribution=merged_attribution(shard_docs),
    )


SERVE = SweepKind(
    name="serve",
    fields=SERVE_FIELDS,
    validate=validate_serve,
    expand=lambda spec: serve_shards(spec, "serve"),
    run_shard=_run_shard,
    aggregate=aggregate_serve,
)
