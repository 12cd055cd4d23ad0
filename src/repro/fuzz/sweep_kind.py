"""The ``fuzz`` sweep kind: one fuzz campaign as ``runs`` shards that
split the case budget.

Each fuzz case resets global state and builds its own obs context
internally; generator/oracle exceptions come back as structured crash
records instead of failing the shard.  See :mod:`repro.sweep.kinds`
for the record's contract.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.fuzz.campaign import (
    FuzzSpecError,
    load_fuzz_spec,
    run_fuzz_shard,
    split_budget,
)
from repro.fuzz.oracles import OUTCOMES
from repro.sweep.kinds import ShardPlan, SweepKind
from repro.sweep.spec import SweepSpec, SweepSpecError, derive_shard_seed


def _validate(spec: SweepSpec) -> None:
    if spec.body["fuzz"] is None:
        raise SweepSpecError("fuzz sweep needs a 'fuzz' object")
    if spec.body["runs"] < 1:
        raise SweepSpecError("fuzz sweep needs runs >= 1")
    try:
        fuzz = load_fuzz_spec(dict(spec.body["fuzz"]))
    except FuzzSpecError as exc:
        raise SweepSpecError(f"invalid fuzz spec: {exc}") from None
    if spec.body["runs"] > fuzz.budget:
        raise SweepSpecError("fuzz sweep needs runs <= fuzz budget")


def _expand(spec: SweepSpec) -> Iterator[ShardPlan]:
    fuzz = dict(spec.body["fuzz"])
    campaign = load_fuzz_spec(fuzz)
    budgets = split_budget(campaign.budget, spec.body["runs"])
    for index, budget in enumerate(budgets):
        seed = derive_shard_seed(spec.seed, "fuzz", campaign.name, index)
        payload = {
            "fuzz": fuzz, "seed": seed, "shard_index": index, "budget": budget,
        }
        yield {"shard": index, "fuzz": campaign.name}, seed, payload


def _run_shard(payload: dict, obs: Optional[Any]) -> dict:
    return run_fuzz_shard(
        payload["fuzz"],
        int(payload["seed"]),
        int(payload["shard_index"]),
        int(payload["budget"]),
    )


def aggregate_fuzz(shard_docs: list[dict]) -> dict:
    """The one fold over a campaign's (index-ordered) shard documents:
    summed cases and outcome counts (every outcome, zeros kept), the
    union of coverage keys, the findings deduplicated by failure key
    (the first in (shard, case) order wins; sorted by key, so the list
    is independent of shard completion order) and every contained
    crash."""
    outcomes = dict.fromkeys(OUTCOMES, 0)
    coverage: set[str] = set()
    by_key: dict[tuple[str, ...], dict] = {}
    crashes: list[dict] = []
    for doc in shard_docs:
        results = doc["results"]
        for outcome, count in results["outcomes"].items():
            outcomes[outcome] += int(count)
        coverage.update(results["coverage"])
        for finding in results["findings"]:
            by_key.setdefault(tuple(str(k) for k in finding["key"]), finding)
        crashes.extend(results["crashes"])
    return {
        "cases": sum(int(d["results"]["budget"]) for d in shard_docs),
        "outcomes": dict(sorted(outcomes.items())),
        "coverage_count": len(coverage),
        "coverage": sorted(coverage),
        "findings": [by_key[key] for key in sorted(by_key)],
        "crashes": crashes,
    }


FUZZ = SweepKind(
    name="fuzz",
    fields={"fuzz": None, "runs": 1},
    validate=_validate,
    expand=_expand,
    run_shard=_run_shard,
    aggregate=aggregate_fuzz,
)
