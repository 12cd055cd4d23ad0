"""A complete sweep kind in one test-side file (see test_kinds.py):
``count`` shards, each multiplying its derived seed by ``factor``."""

from repro.sweep.kinds import SweepKind
from repro.sweep.spec import SweepSpecError, derive_shard_seed


def _validate(spec):
    if spec.body["count"] < 1:
        raise SweepSpecError("toy sweep needs count >= 1")


def _expand(spec):
    for index in range(spec.body["count"]):
        seed = derive_shard_seed(spec.seed, "toy", spec.name, index)
        yield {"slot": index}, seed, {"seed": seed, "factor": spec.body["factor"]}


def _run_shard(payload, obs):
    return {"product": payload["seed"] * payload["factor"]}


def _aggregate(shard_docs):
    return {
        "slots": [doc["key"]["slot"] for doc in shard_docs],
        "total": sum(doc["results"]["product"] for doc in shard_docs),
    }


TOY = SweepKind(
    name="toy",
    fields={"count": 1, "factor": 2},
    validate=_validate,
    expand=_expand,
    run_shard=_run_shard,
    aggregate=_aggregate,
)
