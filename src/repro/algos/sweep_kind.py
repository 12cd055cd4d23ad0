"""The ``compete`` sweep kind: one seeded serve workload fanned across
update strategies.

The derived shard seed deliberately excludes the strategy axis: every
strategy in a seed cell replays the identical arrival sequence and flow
toggles (the paired design the experiment kind uses for its system
axis), and the strategy knob is the only thing that differs between
the cell's shards.  See :mod:`repro.sweep.kinds` for the record.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.algos.registry import system_names
from repro.obs.registry import slo_summary
from repro.serve.service import run_service
from repro.serve.sweep_kind import (
    SERVE_FIELDS,
    mean_throughput,
    merged_attribution,
    seeded_serve_spec,
    serve_shards,
    validate_serve,
)
from repro.sweep.kinds import SweepKind
from repro.sweep.merge import fleet_summary
from repro.sweep.spec import SweepSpec, SweepSpecError


def _validate(spec: SweepSpec) -> None:
    validate_serve(spec)
    strategies = spec.body["strategies"]
    if not strategies:
        raise SweepSpecError(
            "compete sweep needs a non-empty 'strategies' list"
        )
    if len(set(strategies)) != len(strategies):
        raise SweepSpecError("compete sweep repeats a strategy")
    known = system_names()
    for strategy in strategies:
        if strategy not in known:
            raise SweepSpecError(
                f"unknown strategy {strategy!r}; known: {known}"
            )


def _run_shard(payload: dict, obs: Optional[Any]) -> dict:
    strategy = str(payload["strategy"])
    result = run_service(seeded_serve_spec(payload, strategy=strategy), obs=obs)
    return dict(result.to_results(), strategy=strategy)


def _scoreboard_row(shard_docs: list[dict]) -> dict[str, Any]:
    """One strategy's shards, aggregated across the seed axis."""
    row = fleet_summary(shard_docs)
    requests = row["requests"]
    e2e: list[float] = []
    stats: dict[str, int] = {}
    for doc in shard_docs:
        results = doc["results"]
        for name, count in (results.get("strategy_stats") or {}).items():
            stats[name] = stats.get(name, 0) + int(count)
        for record in results.get("records") or []:
            if record.get("outcome") == "completed" and (
                record.get("completed_ms") is not None
            ):
                e2e.append(
                    float(record["completed_ms"])
                    - float(record["submitted_ms"])
                )

    def rate(outcome: str) -> float:
        return row["outcomes"].get(outcome, 0) / requests if requests else 0.0

    entry: dict[str, Any] = {
        name: row[name]
        for name in ("runs", "requests", "completed", "violations",
                     "consistent", "invariants_ok", "outcomes")
    }
    entry.update(
        mean_throughput_per_s=mean_throughput(shard_docs),
        slo_e2e_ms=slo_summary(e2e),
        deadlock_rate=rate("unfinished"),
        park_rate=rate("flow_parked"),
        abort_rate=rate("aborted"),
    )
    if stats:
        entry["strategy_stats"] = dict(sorted(stats.items()))
    attribution = merged_attribution(shard_docs)
    if attribution:
        entry["attribution"] = attribution
    return entry


def aggregate_compete(shard_docs: list[dict]) -> dict:
    """Head-to-head strategy scoreboard over paired seeded workloads.

    One row per strategy, aggregated across the seed axis: outcome
    counts, throughput, end-to-end SLO percentiles (recomputed from the
    concatenated per-request records, so the row is worker-count
    independent), critical-path attribution, and the chaos-facing
    deadlock/park/abort rates.  ``deterministic`` requires every
    (seed, strategy) cell's signatures to be singletons — the same
    resume/worker-count probe serve fleets use — and ``paired`` checks
    that every strategy saw exactly the same derived workload seeds."""
    by_strategy: dict[str, list[dict]] = {}
    for doc in shard_docs:
        by_strategy.setdefault(
            str(doc["results"].get("strategy")), []
        ).append(doc)
    scoreboard = {
        strategy: _scoreboard_row(by_strategy[strategy])
        for strategy in sorted(by_strategy)
    }
    seed_sets = {
        tuple(sorted({int(doc["seed"]) for doc in docs}))
        for docs in by_strategy.values()
    }
    fleet = fleet_summary(shard_docs, axis="strategy")
    return {
        "runs": fleet["runs"],
        "strategies": sorted(by_strategy),
        "deterministic": fleet["deterministic"],
        "signatures_by_cell": fleet["signatures_by_cell"],
        "paired": len(seed_sets) <= 1,
        "violations": fleet["violations"],
        "consistent": fleet["consistent"],
        "scoreboard": scoreboard,
    }


COMPETE = SweepKind(
    name="compete",
    fields=dict(SERVE_FIELDS, strategies=[]),
    validate=_validate,
    expand=lambda spec: serve_shards(
        spec, "compete", axis=("strategies", "strategy")
    ),
    run_shard=_run_shard,
    aggregate=aggregate_compete,
)
