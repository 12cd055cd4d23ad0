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
from repro.sweep.kinds import ShardPlan, SweepKind
from repro.sweep.spec import SweepSpec, SweepSpecError, derive_shard_seed


def _validate(spec: SweepSpec) -> None:
    if spec.body["fuzz"] is None:
        raise SweepSpecError("fuzz sweep needs a 'fuzz' object")
    if spec.body["runs"] < 1:
        raise SweepSpecError("fuzz sweep needs runs >= 1")
    try:
        load_fuzz_spec(dict(spec.body["fuzz"]))
    except FuzzSpecError as exc:
        raise SweepSpecError(f"invalid fuzz spec: {exc}") from None


def _expand(spec: SweepSpec) -> Iterator[ShardPlan]:
    fuzz = dict(spec.body["fuzz"])
    name = fuzz.get("name", spec.name)
    budgets = split_budget(int(fuzz.get("budget", 1)), spec.body["runs"])
    for index, budget in enumerate(budgets):
        seed = derive_shard_seed(spec.seed, "fuzz", str(name), index)
        payload = {
            "fuzz": fuzz, "seed": seed, "shard_index": index, "budget": budget,
        }
        yield {"shard": index, "fuzz": name}, seed, payload


def _run_shard(payload: dict, obs: Optional[Any]) -> dict:
    return run_fuzz_shard(
        payload["fuzz"],
        int(payload["seed"]),
        int(payload["shard_index"]),
        int(payload["budget"]),
    )


def aggregate_fuzz(shard_docs: list[dict]) -> dict:
    """Fleet view of fuzz shards: merged outcome counts, the union of
    coverage keys, distinct finding keys, and contained crashes."""
    outcomes: dict[str, int] = {}
    coverage: set[str] = set()
    finding_keys: set[tuple[str, ...]] = set()
    crashes = 0
    for doc in shard_docs:
        results = doc["results"]
        for outcome, count in (results.get("outcomes") or {}).items():
            outcomes[outcome] = outcomes.get(outcome, 0) + int(count)
        coverage.update(str(k) for k in results.get("coverage") or [])
        for finding in results.get("findings") or []:
            finding_keys.add(tuple(str(k) for k in finding.get("key") or []))
        crashes += len(results.get("crashes") or [])
    return {
        "shards": len(shard_docs),
        "cases": sum(int(d["results"].get("budget", 0)) for d in shard_docs),
        "outcomes": dict(sorted(outcomes.items())),
        "coverage_count": len(coverage),
        "distinct_finding_keys": len(finding_keys),
        "finding_keys": sorted(list(k) for k in finding_keys),
        "crashes": crashes,
        "clean": not finding_keys,
    }


FUZZ = SweepKind(
    name="fuzz",
    fields={"fuzz": None, "runs": 1},
    validate=_validate,
    expand=_expand,
    run_shard=_run_shard,
    aggregate=aggregate_fuzz,
)
