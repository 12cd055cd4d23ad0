"""The ``interference`` sweep kind: static analysis of seeded serve
workloads.

Shares the serve kind's fields, expansion and derived seeds, so a
static-analysis fleet covers exactly the workloads a serve fleet with
the same spec would execute (see :mod:`repro.sweep.kinds`).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.analysis.interference import analyze_serve_spec
from repro.serve.sweep_kind import SERVE, seeded_serve_spec
from repro.sweep.kinds import SweepKind
from repro.sweep.merge import fleet_summary


def _run_shard(payload: dict, obs: Optional[Any]) -> dict:
    report = analyze_serve_spec(seeded_serve_spec(payload))
    return dict(report.to_dict(), signature=report.signature())


def aggregate_interference(shard_docs: list[dict]) -> dict:
    """Fleet view of static interference shards: the per-seed findings
    signature probe plus finding counts by kind."""
    summary = fleet_summary(shard_docs)
    findings = [
        finding
        for doc in shard_docs
        for finding in doc["results"].get("findings") or []
    ]
    by_kind: dict[str, int] = {}
    for finding in findings:
        kind = str(finding.get("kind"))
        by_kind[kind] = by_kind.get(kind, 0) + 1
    return {
        "runs": summary["runs"],
        "deterministic": summary["deterministic"],
        "signatures_by_seed": summary["signatures_by_seed"],
        "plans": sum(int(d["results"].get("plans", 0)) for d in shard_docs),
        "findings": len(findings),
        "findings_by_kind": dict(sorted(by_kind.items())),
        "clean": not findings,
    }


INTERFERENCE = SweepKind(
    name="interference",
    # The serve kind's own spec handling: same fields, same shards,
    # same derived seeds.
    fields=SERVE.fields,
    validate=SERVE.validate,
    expand=SERVE.expand,
    run_shard=_run_shard,
    aggregate=aggregate_interference,
)
