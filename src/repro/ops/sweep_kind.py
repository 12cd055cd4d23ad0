"""The ``ops`` sweep kind: one operations session as seeded replicas.

Same contract as serve fleets — one session per ``seeds`` entry, the
derived seed replacing the embedded serve spec's own — with an
``ops``-tagged derivation so ops and serve fleets sharing a spec seed
never share RNG streams.  See :mod:`repro.sweep.kinds` for the record.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.ops.session import run_session
from repro.ops.spec import SessionSpec, SessionSpecError, load_session_spec
from repro.sweep.kinds import ShardPlan, SweepKind
from repro.sweep.merge import fleet_summary
from repro.sweep.spec import (
    SweepSpec,
    load_sweep_spec,
    replica_shards,
    validate_replicas,
)


def session_sweep(spec: SessionSpec, seeds: int, obs: bool = False) -> SweepSpec:
    """``spec`` as an ``ops`` sweep over ``seeds`` seeded sessions."""
    return load_sweep_spec(
        {
            "name": spec.name,
            "kind": "ops",
            "seed": spec.serve_spec().seed,
            "description": spec.description,
            "seeds": seeds,
            "ops": spec.to_dict(),
            "obs": obs,
        }
    )


def _validate(spec: SweepSpec) -> None:
    validate_replicas(spec, "ops", load_session_spec, SessionSpecError)


def _expand(spec: SweepSpec) -> Iterator[ShardPlan]:
    serve = spec.body["ops"].get("serve") or {}
    return replica_shards(
        spec, "ops", "ops", "session", serve.get("topology", "b4")
    )


def _run_shard(payload: dict, obs: Optional[Any]) -> dict:
    ops = dict(payload["ops"])
    ops["serve"] = dict(ops.get("serve") or {}, seed=int(payload["seed"]))
    return run_session(load_session_spec(ops), obs=obs).to_results()


def aggregate_ops(shard_docs: list[dict]) -> dict:
    """Fleet view of seeded operations sessions: the serve-style
    summary plus the ops ledger — statuses, move outcomes, and whether
    every completed drain left its switch with zero transit flows."""
    ledgers: dict[str, dict[str, int]] = {
        "ops_by_status": {}, "moves_by_outcome": {},
    }
    drains_clean = True
    for doc in shard_docs:
        summary = doc["results"].get("ops_summary") or {}
        for name, ledger in ledgers.items():
            for label, count in (summary.get(name) or {}).items():
                ledger[label] = ledger.get(label, 0) + int(count)
        drains_clean = drains_clean and bool(summary.get("drains_clean", True))
    return dict(
        fleet_summary(shard_docs),
        ops_by_status=dict(sorted(ledgers["ops_by_status"].items())),
        moves_by_outcome=dict(sorted(ledgers["moves_by_outcome"].items())),
        drains_clean=drains_clean,
    )


OPS = SweepKind(
    name="ops",
    fields={"ops": None, "seeds": [0]},
    validate=_validate,
    expand=_expand,
    run_shard=_run_shard,
    aggregate=aggregate_ops,
)
