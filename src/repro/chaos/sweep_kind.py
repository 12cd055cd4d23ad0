"""The ``chaos`` sweep kind: one campaign as ``runs`` same-seed shards.

Every shard replays the identical campaign with the campaign's own
seed, so the fleet is a determinism probe: all trace signatures must
agree (see :mod:`repro.sweep.kinds` for the record's contract).
"""

from __future__ import annotations

from typing import Any, Iterator, Optional

from repro.chaos.campaign import FaultCampaign, load_campaign
from repro.chaos.runner import run_campaign
from repro.sweep.kinds import ShardPlan, SweepKind
from repro.sweep.spec import SweepSpec, SweepSpecError, load_sweep_spec


def campaign_sweep(
    campaign: FaultCampaign, runs: int, obs: bool = False
) -> SweepSpec:
    """``campaign`` as a ``chaos`` sweep of ``runs`` same-seed shards."""
    return load_sweep_spec(
        {
            "name": f"chaos-{campaign.name}",
            "kind": "chaos",
            "seed": campaign.seed,
            "campaign": campaign.to_dict(),
            "runs": runs,
            "obs": obs,
        }
    )


def _validate(spec: SweepSpec) -> None:
    if spec.body["campaign"] is None:
        raise SweepSpecError("chaos sweep needs a 'campaign' object")
    if spec.body["runs"] < 1:
        raise SweepSpecError("chaos sweep needs runs >= 1")
    try:
        load_campaign(spec.body["campaign"])
    except (ValueError, TypeError) as exc:
        raise SweepSpecError(f"invalid chaos campaign: {exc}") from None


def _expand(spec: SweepSpec) -> Iterator[ShardPlan]:
    campaign = dict(spec.body["campaign"])
    base_seed = int(campaign.get("seed", spec.seed))
    for run in range(spec.body["runs"]):
        key = {"run": run, "campaign": campaign.get("name", spec.name)}
        yield key, base_seed, {"campaign": campaign}


def _run_shard(payload: dict, obs: Optional[Any]) -> dict:
    return run_campaign(load_campaign(payload["campaign"]), obs=obs).to_results()


def aggregate_chaos(shard_docs: list[dict]) -> dict:
    """Fleet view of same-campaign runs: the determinism probe."""
    signatures = sorted(
        {str(d["results"].get("trace_signature")) for d in shard_docs}
    )
    return {
        "runs": len(shard_docs),
        "distinct_trace_signatures": len(signatures),
        "trace_signatures": signatures,
        "deterministic": len(signatures) <= 1,
        "consistent": all(d["results"].get("consistent") for d in shard_docs),
        "flows_completed": sum(
            int(d["results"].get("flows_completed", 0)) for d in shard_docs
        ),
        "flows_parked": sum(
            int(d["results"].get("flows_parked", 0)) for d in shard_docs
        ),
    }


CHAOS = SweepKind(
    name="chaos",
    fields={"campaign": None, "runs": 1},
    validate=_validate,
    expand=_expand,
    run_shard=_run_shard,
    aggregate=aggregate_chaos,
)
